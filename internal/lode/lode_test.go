package lode

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cfc/internal/opset"
	"cfc/internal/sim"
)

func TestWriteScanRoundTrip(t *testing.T) {
	old := SegmentRecords
	SegmentRecords = 7
	defer func() { SegmentRecords = old }()

	dir := t.TempDir()
	w, err := Create(filepath.Join(dir, "ds"))
	if err != nil {
		t.Fatal(err)
	}
	const total = 25 // forces rotation at 7: segments of 7,7,7,4
	for i := 0; i < total; i++ {
		r := &Record{
			Seed: int64(1000 + i), Scenario: "uniform", Workload: "mutex/tas",
			Run: i, N: 4, Stop: "all-done", Events: int64(10 * i),
			Steps: int64(i), Accesses: int64(2 * i),
			Digest: "00000000deadbeef", Verdict: "ok",
		}
		if i == 13 {
			r.Verdict = "violation"
			r.Err = "metrics: mutual exclusion violated"
			r.Schedule = []int{0, 1, -1, 1 << 30}
		}
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Total() != total {
		t.Fatalf("Total = %d, want %d", w.Total(), total)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := Open(filepath.Join(dir, "ds"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Index.Total != total || len(d.Index.Segments) != 4 {
		t.Fatalf("index: total=%d segments=%d, want %d/4", d.Index.Total, len(d.Index.Segments), total)
	}
	var sum int64
	for _, seg := range d.Index.Segments {
		sum += seg.Records
	}
	if sum != total {
		t.Fatalf("segment records sum to %d, want %d", sum, total)
	}

	var got []Record
	if err := d.Scan(func(r *Record) bool { got = append(got, *r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("scanned %d records, want %d", len(got), total)
	}
	for i, r := range got {
		if r.Run != i || r.Seed != int64(1000+i) || r.Events != int64(10*i) {
			t.Fatalf("record %d corrupted: %+v", i, r)
		}
	}
	if got[13].Verdict != "violation" || len(got[13].Schedule) != 4 || got[13].Schedule[2] != -1 {
		t.Fatalf("violation record lost its schedule: %+v", got[13])
	}

	// Early-exit scan.
	n := 0
	if err := d.Scan(func(*Record) bool { n++; return n < 10 }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early exit scanned %d, want 10", n)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := Create(dir); err == nil {
		t.Fatal("Create over an existing dataset succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Fatalf("index missing after Close: %v", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	old := SegmentRecords
	SegmentRecords = 50
	defer func() { SegmentRecords = old }()

	w, err := Create(filepath.Join(t.TempDir(), "ds"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := w.Append(&Record{Scenario: "uniform", Run: g*100 + i, Verdict: "ok"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Open(w.dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	if err := d.Scan(func(r *Record) bool { seen[r.Run] = true; return true }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 800 || d.Index.Total != 800 {
		t.Fatalf("lost records: %d unique of total %d, want 800", len(seen), d.Index.Total)
	}
}

// TestDigestSink checks determinism, schedule sensitivity, and that the
// digest sink is allocation-free on the direct engine's solo fast path.
func TestDigestSink(t *testing.T) {
	mem := sim.NewMemory(opset.RMW)
	b := mem.Bit("lock")
	body := func(p *sim.Proc) {
		for p.TestAndSet(b) != 0 {
		}
		p.TestAndReset(b)
		p.Output(uint64(p.ID()))
	}
	procs := []sim.ProcFunc{body, body}

	run := func(sched sim.Scheduler) *DigestSink {
		d := &DigestSink{}
		if _, err := sim.Run(sim.Config{Mem: mem, Procs: procs, Sched: sched, Sink: d}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	a := run(sim.Sequential{})
	b2 := run(sim.Sequential{})
	if a.H != b2.H || a.Hex() != b2.Hex() || a.Events != b2.Events {
		t.Fatalf("same schedule, different digest: %s vs %s", a.Hex(), b2.Hex())
	}
	c := run(&sim.RoundRobin{})
	if c.H == a.H {
		t.Fatalf("different schedules produced equal digests %s", a.Hex())
	}
	if a.Accesses == 0 || a.Steps == 0 || a.Stop == 0 {
		t.Fatalf("digest sink missed counters: %+v", a)
	}

	d := &DigestSink{}
	arena := sim.NewArena()
	cfg := sim.Config{Mem: mem, Procs: procs, Sched: sim.Solo{PID: 0}, Reuse: arena, Sink: d}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("digest sink allocates %.1f times per run, want 0", allocs)
	}
}

// fnv1aBytes is FNV-1a over v's 8 little-endian bytes, one round per
// byte: the definition fnv1a must reproduce.
func fnv1aBytes(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// TestFNV1aMatchesByteLoop pins fnv1a to the byte loop: edge values at
// every byte length and random (h, v) pairs, whose v keep a random count
// of 0-8 low bytes so that every zero-byte tail length is covered.
func TestFNV1aMatchesByteLoop(t *testing.T) {
	vs := []uint64{0, 1, 255, 256, 1 << 63, ^uint64(0)}
	for b := 0; b < 64; b += 8 {
		vs = append(vs, 1<<b, 1<<b-1, 0xff<<b)
	}
	hs := []uint64{0, 1, fnvOffset, ^uint64(0)}
	for _, h := range hs {
		for _, v := range vs {
			if got, want := fnv1a(h, v), fnv1aBytes(h, v); got != want {
				t.Fatalf("fnv1a(%#x, %#x) = %#x, want %#x", h, v, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		h, v := rng.Uint64(), rng.Uint64()>>(8*rng.Intn(9))
		if got, want := fnv1a(h, v), fnv1aBytes(h, v); got != want {
			t.Fatalf("fnv1a(%#x, %#x) = %#x, want %#x", h, v, got, want)
		}
	}
}
