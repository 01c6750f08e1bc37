package check_test

// The portfolio the checker's differential gates explore: mutex,
// contention detection and naming, the safe designs and the recorded
// broken ones, each within its budgets. The DPOR gates (dpor_test.go)
// compare engines over it; the side-by-side gate below compares each
// reference exploration run alone with the same exploration run while
// every other job explores too.

import (
	"slices"
	"strconv"
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

// diffJob is one portfolio configuration the differential gates explore.
type diffJob struct {
	name  string
	build check.Builder
	prop  check.Property
	opts  check.Options
}

func portfolioJobs(t *testing.T) []diffJob {
	t.Helper()
	var jobs []diffJob

	mutexAlgs := []mutex.Algorithm{
		mutex.Peterson{},
		mutex.Kessels{},
		mutex.Lamport{},
		mutex.PackedLamport{},
		mutex.TASLock{},
		mutex.Tournament{L: 1},
		mutex.Tournament{L: 1, Node: mutex.NodeKessels},
		mutex.Tournament{L: 2},
	}
	for _, alg := range mutexAlgs {
		jobs = append(jobs, diffJob{
			name:  "mutex/" + alg.Name(),
			build: mutexBuilder(alg, 2, 1),
			prop:  metrics.CheckMutualExclusion,
			opts:  check.Options{MaxDepth: 120, CollapseSpins: true},
		})
	}

	dets := []contention.Detector{
		contention.Splitter{},
		contention.ChunkedSplitter{L: 1},
		contention.ChunkedSplitter{L: 2},
	}
	for _, det := range dets {
		det := det
		for _, n := range []int{2, 3} {
			n := n
			jobs = append(jobs, diffJob{
				name: "detection/" + det.Name() + "/n=" + strconv.Itoa(n),
				build: taskBuilder(det.Model(), func(mem *sim.Memory) (driver.TaskRunner, error) {
					return det.New(mem, n)
				}, n),
				prop: func(tr *sim.Trace) error { return metrics.CheckDetection(tr, false) },
				opts: check.Options{MaxDepth: 80, CollapseSpins: true, ExploreCrashes: n == 2},
			})
		}
	}

	namingAlgs := []naming.Algorithm{
		naming.TAFTree{},
		naming.TASTARTree{},
		naming.TASScan{},
		naming.TASBinSearch{},
	}
	for _, alg := range namingAlgs {
		alg := alg
		jobs = append(jobs, diffJob{
			name: "naming/" + alg.Name(),
			build: taskBuilder(alg.Model(), func(mem *sim.Memory) (driver.TaskRunner, error) {
				return alg.New(mem, 2)
			}, 2),
			prop: metrics.CheckUniqueOutputs,
			opts: check.Options{
				MaxDepth: 100, CollapseSpins: true,
				ExploreCrashes: true, ExpectTermination: true,
			},
		})
	}

	// Broken designs: the gate must also agree on found violations.
	jobs = append(jobs,
		diffJob{
			name: "broken/lost-update-lock",
			build: func() (*sim.Memory, []sim.ProcFunc, error) {
				mem := sim.NewMemory(opset.AtomicRegisters)
				lock := &brokenLock{flag: mem.Bit("flag")}
				return mem, []sim.ProcFunc{
					driver.MutexBody(lock, 1, 0),
					driver.MutexBody(lock, 1, 0),
				}, nil
			},
			prop: metrics.CheckMutualExclusion,
			opts: check.Options{MaxDepth: 60, CollapseSpins: true},
		},
		diffJob{
			name: "broken/field-split-splitter",
			build: func() (*sim.Memory, []sim.ProcFunc, error) {
				mem := sim.NewMemory(opset.AtomicRegisters)
				det := newFieldSplitSplitter(mem, 3, 1)
				procs := make([]sim.ProcFunc, 3)
				for pid := range procs {
					procs[pid] = func(p *sim.Proc) { det.Run(p) }
				}
				return mem, procs, nil
			},
			prop: detectionProp,
			opts: check.Options{MaxDepth: 60, CollapseSpins: true},
		},
		diffJob{
			name: "broken/chained-global-splitter",
			build: func() (*sim.Memory, []sim.ProcFunc, error) {
				mem := sim.NewMemory(opset.AtomicRegisters)
				det := newChainedGlobalSplitter(mem, 3, 1)
				procs := make([]sim.ProcFunc, 3)
				for pid := range procs {
					procs[pid] = func(p *sim.Proc) { det.Run(p) }
				}
				return mem, procs, nil
			},
			prop: detectionProp,
			opts: check.Options{MaxDepth: 60, CollapseSpins: true},
		},
	)
	return jobs
}

// assertSameResult compares an exploration result against the serial
// reference field by field, including the counterexample; label names
// the configuration that produced got.
func assertSameResult(t *testing.T, serial, got check.Result, label string) {
	t.Helper()
	if serial.States != got.States {
		t.Errorf("%s: States %d != serial %d", label, got.States, serial.States)
	}
	if serial.Runs != got.Runs {
		t.Errorf("%s: Runs %d != serial %d", label, got.Runs, serial.Runs)
	}
	if serial.Truncated != got.Truncated {
		t.Errorf("%s: Truncated %v != serial %v", label, got.Truncated, serial.Truncated)
	}
	if serial.ReducedNodes != got.ReducedNodes {
		t.Errorf("%s: ReducedNodes %d != serial %d", label, got.ReducedNodes, serial.ReducedNodes)
	}
	switch {
	case (serial.Violation == nil) != (got.Violation == nil):
		t.Errorf("%s: violation presence %v != serial %v",
			label, got.Violation != nil, serial.Violation != nil)
	case serial.Violation != nil:
		sv, gv := serial.Violation, got.Violation
		if !slices.Equal(sv.Schedule, gv.Schedule) {
			t.Errorf("%s: witness %v != serial %v", label, gv.Schedule, sv.Schedule)
			return
		}
		if sv.Err.Error() != gv.Err.Error() {
			t.Errorf("%s: witness error %q != serial %q", label, gv.Err, sv.Err)
		}
	}
}

// TestParallelMatchesSerialPortfolio explores every portfolio job with
// the reference, first alone and then with every job exploring at once
// on its own goroutine (parallel subtests), as cmd/cfccheck -workers
// runs a portfolio. Each concurrent result must equal the job's lone
// one: explorations of separately built programs share no mutable
// state, and under -race this checks that they touch none.
func TestParallelMatchesSerialPortfolio(t *testing.T) {
	for _, j := range portfolioJobs(t) {
		t.Run(j.name, func(t *testing.T) {
			alone, err := check.Explore(j.build, j.prop, j.opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Parallel()
			together, err := check.Explore(j.build, j.prop, j.opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, alone, together, "side by side")
		})
	}
}
