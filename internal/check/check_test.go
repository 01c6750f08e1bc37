package check_test

import (
	"fmt"
	"strings"
	"testing"

	"cfc/internal/check"
	"cfc/internal/contention"
	"cfc/internal/driver"
	"cfc/internal/metrics"
	"cfc/internal/mutex"
	"cfc/internal/naming"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// mutexBuilder wraps a mutex algorithm into a check.Builder with each
// process doing `rounds` lock/unlock rounds.
func mutexBuilder(alg mutex.Algorithm, n, rounds int) check.Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(alg.Model())
		inst, err := alg.New(mem, n)
		if err != nil {
			return nil, nil, err
		}
		procs := make([]sim.ProcFunc, n)
		for pid := range procs {
			procs[pid] = driver.MutexBody(inst, rounds, 0)
		}
		return mem, procs, nil
	}
}

func taskBuilder(model opset.Model, makeInst func(mem *sim.Memory) (driver.TaskRunner, error), n int) check.Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(model)
		inst, err := makeInst(mem)
		if err != nil {
			return nil, nil, err
		}
		procs := make([]sim.ProcFunc, n)
		for pid := range procs {
			procs[pid] = driver.TaskBody(inst)
		}
		return mem, procs, nil
	}
}

func TestExhaustiveMutualExclusionTwoProcs(t *testing.T) {
	algs := []mutex.Algorithm{
		mutex.Peterson{},
		mutex.Kessels{},
		mutex.Lamport{},
		mutex.PackedLamport{},
		mutex.TASLock{},
		mutex.Tournament{L: 1},
		mutex.Tournament{L: 2},
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			res, err := check.Explore(mutexBuilder(alg, 2, 1), metrics.CheckMutualExclusion, check.Options{
				MaxDepth:      120,
				CollapseSpins: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("safety violated: %v", res.Violation)
			}
			if res.States == 0 || res.Runs == 0 {
				t.Fatalf("exploration degenerate: %+v", res)
			}
			t.Logf("%s: %d states, %d maximal runs, truncated=%v", alg.Name(), res.States, res.Runs, res.Truncated)
		})
	}
}

func TestExhaustiveMutualExclusionThreeProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 3-process exploration is slow")
	}
	algs := []mutex.Algorithm{
		mutex.Lamport{},
		mutex.TASLock{},
		mutex.Tournament{L: 2},
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			res, err := check.Explore(mutexBuilder(alg, 3, 1), metrics.CheckMutualExclusion, check.Options{
				MaxDepth:      80,
				MaxStates:     1 << 16,
				CollapseSpins: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("safety violated: %v", res.Violation)
			}
			t.Logf("%s: %d states, %d runs, truncated=%v", alg.Name(), res.States, res.Runs, res.Truncated)
		})
	}
}

// brokenLock "locks" by a plain read-then-write of a flag: the classic
// lost-update race. The checker must find the mutual-exclusion violation.
type brokenLock struct {
	flag sim.Reg
}

func (b *brokenLock) Lock(p *sim.Proc) {
	for p.Read(b.flag) != 0 {
	}
	p.Write(b.flag, 1)
}

func (b *brokenLock) Unlock(p *sim.Proc) {
	p.Write(b.flag, 0)
}

func TestCheckerFindsBrokenLock(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		lock := &brokenLock{flag: mem.Bit("flag")}
		return mem, []sim.ProcFunc{
			driver.MutexBody(lock, 1, 0),
			driver.MutexBody(lock, 1, 0),
		}, nil
	}
	res, err := check.Explore(build, metrics.CheckMutualExclusion, check.Options{MaxDepth: 60, CollapseSpins: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("checker missed the lost-update race")
	}
	if !strings.Contains(res.Violation.Err.Error(), "mutual exclusion violated") {
		t.Errorf("unexpected violation error: %v", res.Violation.Err)
	}
	// The witness schedule must reproduce the violation deterministically.
	mem, procs, err := build()
	if err != nil {
		t.Fatal(err)
	}
	resRun, err := sim.Run(sim.Config{
		Mem:   mem,
		Procs: procs,
		Sched: sim.NewScripted(res.Violation.Schedule),
	})
	if err != nil || resRun.Err != nil {
		t.Fatalf("replay: %v / %v", err, resRun.Err)
	}
	if err := metrics.CheckMutualExclusion(resRun.Trace); err == nil {
		t.Error("witness schedule did not reproduce the violation")
	}
}

func TestExhaustiveDetectionSafety(t *testing.T) {
	dets := []contention.Detector{
		contention.Splitter{},
		contention.ChunkedSplitter{L: 1},
		contention.ChunkedSplitter{L: 2},
	}
	for _, det := range dets {
		det := det
		t.Run(det.Name(), func(t *testing.T) {
			for _, n := range []int{2, 3} {
				build := taskBuilder(det.Model(), func(mem *sim.Memory) (driver.TaskRunner, error) {
					return det.New(mem, n)
				}, n)
				prop := func(tr *sim.Trace) error {
					return metrics.CheckDetection(tr, false)
				}
				res, err := check.Explore(build, prop, check.Options{MaxDepth: 80, CollapseSpins: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Violation != nil {
					t.Fatalf("n=%d: %v", n, res.Violation)
				}
				if res.Truncated {
					t.Errorf("n=%d: exploration truncated; raise bounds", n)
				}
			}
		})
	}
}

func TestExhaustiveNamingUniquenessWithCrashes(t *testing.T) {
	algs := []naming.Algorithm{
		naming.TAFTree{},
		naming.TASTARTree{},
		naming.TASScan{},
		naming.TASBinSearch{},
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			for _, n := range []int{2, 3} {
				build := taskBuilder(alg.Model(), func(mem *sim.Memory) (driver.TaskRunner, error) {
					return alg.New(mem, n)
				}, n)
				res, err := check.Explore(build, metrics.CheckUniqueOutputs, check.Options{
					MaxDepth:          100,
					ExploreCrashes:    true,
					ExpectTermination: true,
					CollapseSpins:     true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Violation != nil {
					t.Fatalf("n=%d: %v", n, res.Violation)
				}
				if res.Truncated {
					t.Errorf("n=%d: exploration truncated; raise bounds", n)
				}
				t.Logf("%s n=%d: %d states, %d runs", alg.Name(), n, res.States, res.Runs)
			}
		})
	}
}

func TestExhaustiveNamingFourProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 4-process naming is slow")
	}
	algs := []naming.Algorithm{naming.TASScan{}, naming.TASBinSearch{}, naming.TAFTree{}}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			n := 4
			build := taskBuilder(alg.Model(), func(mem *sim.Memory) (driver.TaskRunner, error) {
				return alg.New(mem, n)
			}, n)
			res, err := check.Explore(build, metrics.CheckUniqueOutputs, check.Options{
				MaxDepth:      120,
				MaxStates:     1 << 20,
				CollapseSpins: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatal(res.Violation)
			}
			t.Logf("%s n=4: %d states, %d runs, truncated=%v", alg.Name(), res.States, res.Runs, res.Truncated)
		})
	}
}

func TestBuilderErrorPropagates(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		return nil, nil, fmt.Errorf("boom")
	}
	_, err := check.Explore(build, func(*sim.Trace) error { return nil }, check.Options{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("builder error not propagated: %v", err)
	}
}

func TestTerminationExpectation(t *testing.T) {
	// A process that busy-waits forever violates ExpectTermination when
	// the depth bound truncates it... but truncation is not a leaf; build
	// a process that stops stepping by crashing itself is not expressible,
	// so instead verify that a terminating program passes.
	build := taskBuilder(opset.RMW, func(mem *sim.Memory) (driver.TaskRunner, error) {
		return naming.TASScan{}.New(mem, 2)
	}, 2)
	res, err := check.Explore(build, metrics.CheckUniqueOutputs, check.Options{
		MaxDepth:          60,
		ExpectTermination: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
}
