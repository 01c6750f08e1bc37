package lode

import (
	"fmt"

	"cfc/internal/sim"
)

// DigestSink is a sim.Sink that folds every event into an FNV-1a hash
// and counts events and shared accesses, allocation-free. Two runs with
// equal digests emitted identical event streams (same schedule, same
// observed register values, same outputs); the digest lands in each
// Record so a dataset can prove which runs a sweep actually executed.
//
// The value is FNV-1a over each field's 8 little-endian bytes, in the
// order Event folds them. fnv1a skips a field's zero high bytes without
// changing that value, so the digests of any two datasets stay
// comparable with cfcfleet -diff.
type DigestSink struct {
	H        uint64 // FNV-1a over all event fields, in order
	Events   int64
	Accesses int64
	Steps    int64 // scheduling steps consumed (from End)
	Stop     sim.StopReason
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime^k (mod 2^64).
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// fnv1a folds v's 8 little-endian bytes into h. A zero byte's round is
// h *= fnvPrime, since xor with zero is the identity, so once only the
// lowest of the k bytes left can be nonzero, the k remaining rounds are
// one xor and one multiplication by fnvPrime^k. A field that fits in
// one byte costs only that.
func fnv1a(h, v uint64) uint64 {
	k := 8
	for ; v > 0xff; v >>= 8 {
		h ^= v & 0xff
		h *= fnvPrime
		k--
	}
	return (h ^ v) * fnvPrimePow[k]
}

// Begin resets the sink for a new run.
func (d *DigestSink) Begin(info sim.RunInfo) {
	d.H = fnvOffset
	d.Events = 0
	d.Accesses = 0
	d.Steps = 0
	d.Stop = 0
	d.H = fnv1a(d.H, uint64(info.NumProcs))
}

// Event folds one event. Seq is implied by position and excluded.
func (d *DigestSink) Event(e *sim.Event) {
	h := fnv1a(d.H, uint64(e.PID))
	h = fnv1a(h, uint64(e.Kind))
	if e.Kind == sim.KindAccess {
		d.Accesses++
		h = fnv1a(h, uint64(e.Op))
		h = fnv1a(h, uint64(e.Cell))
		h = fnv1a(h, uint64(e.Shift)|uint64(e.Width)<<8)
		h = fnv1a(h, e.Arg)
		if e.HasRet {
			h = fnv1a(h, e.Ret+1)
		}
	}
	h = fnv1a(h, uint64(e.Phase))
	h = fnv1a(h, e.Out)
	d.H = h
	d.Events++
}

// End records the run's stop reason and step count.
func (d *DigestSink) End(stop sim.StopReason, steps int) {
	d.Stop = stop
	d.Steps = int64(steps)
}

// Hex returns the digest as the 16-hex string stored in Record.Digest.
func (d *DigestSink) Hex() string { return fmt.Sprintf("%016x", d.H) }
