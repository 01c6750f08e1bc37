package check

import (
	"math/rand"
	"testing"
)

// visitedOracle drives a visitedSet and a map with the same operations
// and fails on the first answer where they differ.
type visitedOracle struct {
	t    *testing.T
	set  visitedSet
	want map[uint64]bool
}

func newVisitedOracle(t *testing.T) *visitedOracle {
	return &visitedOracle{t: t, want: make(map[uint64]bool)}
}

// insert inserts k into both and compares the fresh result and len.
func (o *visitedOracle) insert(k uint64) {
	o.t.Helper()
	fresh := !o.want[k]
	o.want[k] = true
	if got := o.set.insert(k); got != fresh {
		o.t.Fatalf("insert(%#x) = %v, want %v", k, got, fresh)
	}
	if o.set.len() != len(o.want) {
		o.t.Fatalf("after insert(%#x): len %d, want %d", k, o.set.len(), len(o.want))
	}
}

// has compares membership of k.
func (o *visitedOracle) has(k uint64) {
	o.t.Helper()
	if got := o.set.has(k); got != o.want[k] {
		o.t.Fatalf("has(%#x) = %v, want %v", k, got, o.want[k])
	}
}

// hasAll compares membership of every inserted key and of each key's
// neighbours, which share a probe chain with it.
func (o *visitedOracle) hasAll() {
	o.t.Helper()
	for k := range o.want {
		o.has(k)
		o.has(k + 1)
		o.has(k ^ 1<<63)
	}
}

// TestVisitedSetMatchesMap holds the flat visited table to a map: the
// same fresh/seen answers, the same len and the same membership, over
// random keys and over the keys hardest for it.
func TestVisitedSetMatchesMap(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		o := newVisitedOracle(t)
		o.has(0)
		o.has(1)
		o.has(^uint64(0))
		if o.set.len() != 0 {
			t.Fatalf("empty set has len %d", o.set.len())
		}
	})
	t.Run("zero", func(t *testing.T) {
		// 0 marks an empty slot, so the digest 0 lives in a flag; it
		// must count once and stay apart from every stored key.
		o := newVisitedOracle(t)
		o.insert(0)
		o.insert(0)
		o.has(1)
		o.insert(1 << 8) // index bits 0, like the digest 0
		o.insert(0)
		o.hasAll()
	})
	t.Run("random", func(t *testing.T) {
		o := newVisitedOracle(t)
		rng := rand.New(rand.NewSource(1))
		var keys []uint64
		for range 20000 {
			var k uint64
			switch {
			case len(keys) > 0 && rng.Intn(3) == 0:
				k = keys[rng.Intn(len(keys))] // a revisit
			case rng.Intn(2) == 0:
				k = rng.Uint64() >> uint(rng.Intn(64)) // small keys, as under symmetry
			default:
				k = rng.Uint64()
			}
			keys = append(keys, k)
			o.insert(k)
			o.has(rng.Uint64())
		}
		o.hasAll()
	})
	t.Run("same-index-bits", func(t *testing.T) {
		// Keys equal in every bit below 24 share one home slot while the
		// table is at most 2^24 slots: one chain holds them all. Homes
		// near the top of the array make the chain wrap around to slot
		// 0, and keys homed at slot 0 collide with the wrapped chain.
		for _, low := range []uint64{0, 1, 255, 1<<10 - 3, 1<<24 - 1} {
			o := newVisitedOracle(t)
			for i := range uint64(1200) {
				o.insert(low | (i+1)<<24)
				if i%7 == 0 {
					o.insert(i + 1) // homed near slot 0
				}
				if i%97 == 0 {
					o.hasAll()
				}
			}
			o.hasAll()
		}
	})
	t.Run("growth", func(t *testing.T) {
		// Insert up to each doubling threshold, then across it, checking
		// every key on both sides.
		o := newVisitedOracle(t)
		rng := rand.New(rand.NewSource(2))
		for slots := minVisitedSlots; slots <= 1<<14; slots *= 2 {
			for o.set.len() < slots*7/8 {
				o.insert(rng.Uint64() | 1)
			}
			if len(o.set.slots) != slots {
				t.Fatalf("%d keys in %d slots, want %d slots", o.set.len(), len(o.set.slots), slots)
			}
			o.hasAll()
			for k := range o.want {
				o.insert(k) // a revisit adds nothing, so it must not grow
				break
			}
			if len(o.set.slots) != slots {
				t.Fatalf("a revisit at 7/8 load grew the table to %d slots", len(o.set.slots))
			}
			o.insert(rng.Uint64() | 1)
			if len(o.set.slots) != 2*slots {
				t.Fatalf("%d keys in %d slots, want %d slots after crossing 7/8", o.set.len(), len(o.set.slots), 2*slots)
			}
			o.hasAll()
		}
	})
}
