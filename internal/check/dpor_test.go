package check_test

// Source-DPOR gates, mirroring the static-POR tiers in por_test.go:
//
//   - micro-programs with known state counts pinning the exact shape of
//     the dynamic reduction (disjoint registers collapse to one order,
//     all-conflicting writers reduce nothing, races discovered mid-run
//     re-seed backtrack points);
//   - the portfolio differential: DPOR and the unreduced reference must
//     agree on every verdict (witnesses replaying for the broken
//     designs), and DPOR must never visit more states than the
//     reference;
//   - stage-pass equivalence: DPOR explorations are bit-identical at
//     any Workers count (the stage pass is pure, the commit pass
//     serial);
//   - the tas/ttas regression gate of PR 7: with sleep sets normalised
//     into the visited key, the reduced explorations stay at or below
//     the reference state count at n = 2 and 3 — the configurations the
//     PR 6 PORAuto heuristic used to give up on.

import (
	"fmt"
	"testing"

	"cfc/internal/check"
	"cfc/internal/driver"
	"cfc/internal/metrics"
	"cfc/internal/mutex"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// TestDPORDisjointRegistersCollapseToOneOrder: on the fully independent
// two-process program no race is ever observed, so source-DPOR never adds
// a backtrack point and explores exactly one maximal run.
func TestDPORDisjointRegistersCollapseToOneOrder(t *testing.T) {
	const k = 3
	res, err := check.Explore(disjointBuilder(k), trivialProp, check.Options{MaxDepth: 40, DPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 1 {
		t.Errorf("DPOR runs = %d, want 1 (no race, no backtracking)", res.Runs)
	}
	if want := 2 * k; res.States != want {
		t.Errorf("DPOR states = %d, want %d (one chain)", res.States, want)
	}
	if res.Violation != nil {
		t.Errorf("unexpected violation: %v", res.Violation)
	}
	if res.ReducedNodes == 0 {
		t.Error("DPOR reported no reduced nodes on a fully independent program")
	}
}

// TestDPORConflictingWritersNoReduction: every pair of steps conflicts,
// so every first run seeds backtrack points at every node and the
// exploration degenerates to the full tree — same closure as the
// reference.
func TestDPORConflictingWritersNoReduction(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		x := mem.Register("x", 8)
		body := func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				p.Write(x, uint64(p.ID()+1))
			}
		}
		return mem, []sim.ProcFunc{body, body}, nil
	}
	ref, err := check.Explore(build, trivialProp, check.Options{MaxDepth: 40})
	if err != nil {
		t.Fatal(err)
	}
	dpor, err := check.Explore(build, trivialProp, check.Options{MaxDepth: 40, DPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	if dpor.States != ref.States {
		t.Errorf("conflicting writers: DPOR %d states != reference %d states", dpor.States, ref.States)
	}
}

// TestDPORSeededViolationWitnessReplays: the lost-update race must
// survive the dynamic reduction at every worker count, and the witness
// must replay on a fresh program instance.
func TestDPORSeededViolationWitnessReplays(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		lock := &brokenLock{flag: mem.Bit("flag")}
		return mem, []sim.ProcFunc{
			driver.MutexBody(lock, 1, 0),
			driver.MutexBody(lock, 1, 0),
		}, nil
	}
	for _, workers := range []int{1, 4} {
		res, err := check.Explore(build, metrics.CheckMutualExclusion, check.Options{
			MaxDepth: 60, CollapseSpins: true, DPOR: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil {
			t.Fatalf("workers=%d: DPOR missed the lost-update race", workers)
		}
		if !witnessReplays(t, build, metrics.CheckMutualExclusion, check.Options{}, res.Violation.Schedule) {
			t.Errorf("workers=%d: DPOR witness %v did not replay to a violation",
				workers, res.Violation.Schedule)
		}
	}
}

// dporPortfolioOpts enables the dynamic reduction on a portfolio job's
// options, with symmetry toggled by the caller.
func dporPortfolioOpts(base check.Options, symmetry bool) check.Options {
	base.DPOR = true
	base.Symmetry = symmetry
	base.POR = false
	base.PORAuto = false
	return base
}

// TestDPORAgreesWithReferencePortfolio is the PR 7 soundness gate: across
// the full portfolio — correct algorithms and seeded-broken designs,
// crash injection included — source-DPOR (with and without symmetry) and
// the unreduced reference must reach the same verdict, witnesses must
// replay, and the reduction must never explore more states than the
// reference.
func TestDPORAgreesWithReferencePortfolio(t *testing.T) {
	for _, j := range portfolioJobs(t) {
		j := j
		t.Run(j.name, func(t *testing.T) {
			refOpts := j.opts
			refOpts.Workers = 1
			ref, err := check.Explore(j.build, j.prop, refOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, sym := range []bool{false, true} {
				opts := dporPortfolioOpts(j.opts, sym)
				opts.Workers = 1
				res, err := check.Explore(j.build, j.prop, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := "dpor"
				if sym {
					label = "dpor+sym"
				}
				if (ref.Violation == nil) != (res.Violation == nil) {
					t.Fatalf("%s: verdicts disagree: reference violation %v, DPOR violation %v",
						label, ref.Violation, res.Violation)
				}
				if res.Violation != nil {
					if !witnessReplays(t, j.build, j.prop, j.opts, res.Violation.Schedule) {
						t.Errorf("%s: witness %v does not replay", label, res.Violation.Schedule)
					}
				} else if res.States > ref.States {
					// Only completed explorations are comparable: a violating
					// run halts at the first counterexample, so its state
					// count reflects search order, not reduction quality.
					t.Errorf("%s: visited more states than the reference: %d vs %d",
						label, res.States, ref.States)
				}
				t.Logf("%s: states reference %d, reduced %d (%.2fx), runs %d, sym=%v",
					label, ref.States, res.States,
					float64(ref.States)/float64(max(res.States, 1)), res.Runs, res.SymmetryApplied)
			}
		})
	}
}

// TestDPORParallelMatchesSerialPortfolio: DPOR explorations must be
// bit-identical between one stage-pass worker and several — the stage
// pass is a pure function of each task, and the serial commit pass
// decides backtrack sets, sleep sets and join batches in task order.
func TestDPORParallelMatchesSerialPortfolio(t *testing.T) {
	workerCounts := []int{2, 4}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, j := range portfolioJobs(t) {
		j := j
		t.Run(j.name, func(t *testing.T) {
			serialOpts := dporPortfolioOpts(j.opts, true)
			serialOpts.Workers = 1
			serial, err := check.Explore(j.build, j.prop, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Truncated {
				t.Fatalf("portfolio config truncated under DPOR (%+v)", serial)
			}
			for _, w := range workerCounts {
				parOpts := serialOpts
				parOpts.Workers = w
				parallel, err := check.Explore(j.build, j.prop, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, serial, parallel, fmt.Sprintf("workers=%d", w))
			}
		})
	}
}

// TestDPORSpinCollapseTASProvesExclusion pins the cycle handling: under
// spin collapse a TAS spinner's re-issued test-and-set folds back to the
// same state; the first-batch rule (smallest awake progressing pid, else
// full expansion) must keep the holder's exit reachable so the protocol
// is still proved in full.
func TestDPORSpinCollapseTASProvesExclusion(t *testing.T) {
	build := mutexBuilder(mutex.TASLock{}, 2, 1)
	res, err := check.Explore(build, metrics.CheckMutualExclusion,
		check.Options{MaxDepth: 120, CollapseSpins: true, DPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("TAS lock misreported under DPOR: %v", res.Violation)
	}
	if res.Truncated {
		t.Fatal("TAS n=2 truncated under DPOR")
	}
	if res.Runs == 0 {
		t.Error("DPOR explored no complete runs")
	}
}

// TestReductionNeverExceedsReferenceTAS is the tas/ttas regression
// gate: sleep normalisation (normalizeSleep — live pids only,
// conflicting / visible / non-progressing sleepers woken) collapses the
// per-state key fan-out that used to inflate spin-heavy single-cell
// explorations far past the unreduced reference and made PORAuto give
// up on them. DPOR, the default engine, must now stay at or below the
// unreduced state count at n = 2 and 3. The static provider retains a
// small residual (sleeps that do buy pruning still split keys on states
// reached along multiple ample paths), pinned to within 1/8 above the
// reference so it cannot silently regress toward the pre-normalisation
// ~40% inflation.
func TestReductionNeverExceedsReferenceTAS(t *testing.T) {
	algs := []mutex.Algorithm{mutex.TASLock{}, mutex.TTASLock{}}
	for _, alg := range algs {
		for _, n := range []int{2, 3} {
			alg, n := alg, n
			t.Run(alg.Name()+"/n="+string(rune('0'+n)), func(t *testing.T) {
				build := mutexBuilder(alg, n, 1)
				opts := check.Options{MaxDepth: 400, CollapseSpins: true}
				ref, err := check.Explore(build, metrics.CheckMutualExclusion, opts)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Truncated {
					t.Fatalf("reference truncated at depth %d", opts.MaxDepth)
				}
				porOpts := opts
				porOpts.POR = true
				por, err := check.Explore(build, metrics.CheckMutualExclusion, porOpts)
				if err != nil {
					t.Fatal(err)
				}
				dporOpts := opts
				dporOpts.DPOR = true
				dpor, err := check.Explore(build, metrics.CheckMutualExclusion, dporOpts)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					label string
					res   check.Result
					cap   int
				}{
					{"static POR", por, ref.States + ref.States/8},
					{"DPOR", dpor, ref.States},
				} {
					if c.res.Violation != nil {
						t.Errorf("%s misreported a violation: %v", c.label, c.res.Violation)
					}
					if c.res.States > c.cap {
						t.Errorf("%s states = %d exceeds cap %d (reference %d)",
							c.label, c.res.States, c.cap, ref.States)
					}
				}
				t.Logf("states: reference %d, static POR %d, DPOR %d",
					ref.States, por.States, dpor.States)
			})
		}
	}
}
