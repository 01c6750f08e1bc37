package check_test

// Seeded mutants of two of the portfolio's locks, each broken by a
// one-line change, and one random program on which DPOR misses a
// violation. They are test-only bodies, not portfolio entries: the
// reference exploration must refute all three.

import (
	"slices"
	"testing"

	"cfc/internal/check"
	"cfc/internal/driver"
	"cfc/internal/metrics"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// mutantLamport is Lamport's fast mutex (mutex.Lamport, slot p.ID()+1)
// with the `x != id` branch never taken: after writing y a process
// still reads x, but ignores the value and enters, so it never takes
// the slow path that waits out a competitor which overwrote x.
type mutantLamport struct {
	x, y sim.Reg
	b    []sim.Reg
}

func (l *mutantLamport) Lock(p *sim.Proc) {
	v := uint64(p.ID() + 1)
	for {
		p.Write(l.b[p.ID()], 1)
		p.Write(l.x, v)
		if p.Read(l.y) != 0 {
			p.Write(l.b[p.ID()], 0)
			for p.Read(l.y) != 0 {
			}
			continue
		}
		p.Write(l.y, v)
		p.Read(l.x) // the mutation: the result is ignored
		return
	}
}

func (l *mutantLamport) Unlock(p *sim.Proc) {
	p.Write(l.y, 0)
	p.Write(l.b[p.ID()], 0)
}

// mutantPeterson is Peterson's lock (mutex.Peterson) with its turn
// write moved before its flag write. A process that has written turn
// but not yet flag lets the other through its wait, and then passes its
// own wait because turn no longer holds its side. It declares the same
// pid symmetry as mutex.Peterson.
type mutantPeterson struct {
	flag [2]sim.Reg
	turn sim.Reg
}

func (l *mutantPeterson) Lock(p *sim.Proc) {
	side := p.ID()
	p.Write(l.turn, uint64(side)) // the mutation: turn before flag
	p.Write(l.flag[side], 1)
	for {
		if p.Read(l.flag[1-side]) == 0 {
			return
		}
		if p.Read(l.turn) != uint64(side) {
			return
		}
	}
}

func (l *mutantPeterson) Unlock(p *sim.Proc) {
	p.Write(l.flag[p.ID()], 0)
}

// mutantBuilder runs one lock round per process of the lock newLock
// declares, for two processes.
func mutantBuilder(newLock func(mem *sim.Memory) driver.Locker) check.Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		lock := newLock(mem)
		return mem, []sim.ProcFunc{
			driver.MutexBody(lock, 1, 0),
			driver.MutexBody(lock, 1, 0),
		}, nil
	}
}

// TestReferenceRefutesSeededMutants pins three broken programs against
// the reference exploration: both mutants at n = 2 with one lock round
// per process, under mutual exclusion, and the fuzz harness's program
// "90010017007001010" (fuzz_test.go) under unique outputs, with the
// harness's options. The reference must refute each one with the
// witness recorded here, and the witness must replay on a fresh program
// instance. DPOR is run and logged, not asserted: its visited-hit
// compensation (the stateful-DPOR caveat in dpor.go) proves both
// mutants, and it misses the fuzz program's violation. It joins this
// test once ROADMAP item 1 makes it sound.
func TestReferenceRefutesSeededMutants(t *testing.T) {
	mutexOpts := check.Options{MaxDepth: 120, MaxStates: 1 << 19, CollapseSpins: true}
	fuzzMiss := decodeFuzzProgram([]byte("90010017007001010"))
	for _, tc := range []struct {
		name    string
		build   check.Builder
		prop    check.Property
		opts    check.Options
		states  int
		witness []int
	}{
		{
			name: "lamport-fast/x-recheck-ignored",
			build: mutantBuilder(func(mem *sim.Memory) driver.Locker {
				return &mutantLamport{x: mem.Register("x", 2), y: mem.Register("y", 2), b: mem.Bits("b", 2)}
			}),
			prop:    metrics.CheckMutualExclusion,
			opts:    mutexOpts,
			states:  281,
			witness: []int{0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1},
		},
		{
			name: "peterson-2p/turn-before-flag",
			build: mutantBuilder(func(mem *sim.Memory) driver.Locker {
				l := &mutantPeterson{
					flag: [2]sim.Reg{mem.Bit("flag[0]"), mem.Bit("flag[1]")},
					turn: mem.Bit("turn"),
				}
				mem.DeclareSymmetric(2)
				mem.DeclarePidFamily(l.flag[:])
				mem.DeclarePidValued(l.turn, sim.PidEncExact)
				return l
			}),
			prop:    metrics.CheckMutualExclusion,
			opts:    mutexOpts,
			states:  118,
			witness: []int{0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1},
		},
		{
			name:  "fuzz/90010017007001010",
			build: fuzzMiss.builder(),
			prop:  metrics.CheckUniqueOutputs,
			opts: check.Options{
				MaxDepth:       64,
				MaxStates:      fuzzMaxStates,
				ExploreCrashes: fuzzMiss.crashes,
			},
			states:  101,
			witness: []int{0, 0, 1, 2, 2, 2, 0, 0, 1, 1, 2, 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := check.Explore(tc.build, tc.prop, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("reference proved it: %d states, %d runs, truncated=%v", res.States, res.Runs, res.Truncated)
			}
			if !slices.Equal(res.Violation.Schedule, tc.witness) || res.States != tc.states {
				t.Errorf("refuted in %d states with witness %v, want %d states and %v",
					res.States, res.Violation.Schedule, tc.states, tc.witness)
			}
			if !witnessReplays(t, tc.build, tc.prop, tc.opts, res.Violation.Schedule) {
				t.Errorf("witness %v does not replay", res.Violation.Schedule)
			}
			dopts := tc.opts
			dopts.DPOR = true
			dres, err := check.Explore(tc.build, tc.prop, dopts)
			if err != nil {
				t.Fatal(err)
			}
			if dres.Violation == nil {
				t.Logf("DPOR (not asserted) proves it: %d states, %d runs", dres.States, dres.Runs)
			} else {
				t.Logf("DPOR (not asserted) refutes it with witness %v", dres.Violation.Schedule)
			}
		})
	}
}
