package check_test

// Partial-order-reduction gates, in three tiers:
//
//   - micro-programs with known full state counts, checking the exact
//     shape of the reduction (disjoint registers collapse to one ample
//     order, conflicting writers reduce nothing);
//   - a seeded-violation program asserting POR still finds the bug and
//     its witness schedule replays to a real violation;
//   - the portfolio differential: POR-on and POR-off must agree on every
//     verdict (with both witnesses replaying for the broken designs), and
//     a POR-on exploration must give the same result alone and side by
//     side with the rest of the portfolio.

import (
	"testing"

	"cfc/internal/check"
	"cfc/internal/driver"
	"cfc/internal/metrics"
	"cfc/internal/mutex"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// disjointBuilder is the canonical fully-independent program: two
// processes, each performing k writes to its own private register. Every
// interleaving is a permutation of the same two commuting sequences.
func disjointBuilder(k int) check.Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		a := mem.Register("a", 8)
		b := mem.Register("b", 8)
		body := func(r sim.Reg) sim.ProcFunc {
			return func(p *sim.Proc) {
				for i := 0; i < k; i++ {
					p.Write(r, uint64(i+1))
				}
			}
		}
		return mem, []sim.ProcFunc{body(a), body(b)}, nil
	}
}

func trivialProp(*sim.Trace) error { return nil }

// TestPORDisjointRegistersCollapseToOneOrder: with POR, the two-process
// disjoint-register program explores exactly one ample order — a single
// maximal run along a chain of 2k states — where the reference
// exploration walks the full (k+1)x(k+1) grid.
func TestPORDisjointRegistersCollapseToOneOrder(t *testing.T) {
	const k = 3
	ref, err := check.Explore(disjointBuilder(k), trivialProp, check.Options{MaxDepth: 40})
	if err != nil {
		t.Fatal(err)
	}
	por, err := check.Explore(disjointBuilder(k), trivialProp, check.Options{MaxDepth: 40, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: all grid positions except the terminal one are expanded
	// states ((k+1)^2 - 1). Runs counts maximal schedules the pruned DFS
	// actually walks to the end — each state is expanded once, so exactly
	// the two penultimate grid corners reach the terminal state.
	wantRefStates := (k+1)*(k+1) - 1 // 15
	wantRefRuns := 2
	if ref.States != wantRefStates || ref.Runs != wantRefRuns {
		t.Fatalf("reference exploration: %d states %d runs, want %d states %d runs",
			ref.States, ref.Runs, wantRefStates, wantRefRuns)
	}
	if por.Runs != 1 {
		t.Errorf("POR runs = %d, want 1 (a single ample order)", por.Runs)
	}
	if want := 2 * k; por.States != want {
		t.Errorf("POR states = %d, want %d (one chain)", por.States, want)
	}
	if por.Violation != nil || ref.Violation != nil {
		t.Errorf("unexpected violation: %v / %v", por.Violation, ref.Violation)
	}
	if por.ReducedNodes == 0 {
		t.Error("POR reported no reduced nodes on a fully independent program")
	}
}

// TestPORConflictingWritersNoReduction: two writers of different values
// to one shared register never commute, so POR must explore exactly the
// reference tree.
func TestPORConflictingWritersNoReduction(t *testing.T) {
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
	por, err := check.Explore(build, trivialProp, check.Options{MaxDepth: 40, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	if por.States != ref.States || por.Runs != ref.Runs {
		t.Errorf("conflicting writers: POR %d states %d runs != reference %d states %d runs",
			por.States, por.Runs, ref.States, ref.Runs)
	}
	if por.ReducedNodes != 0 {
		t.Errorf("POR reduced %d nodes of an all-conflicting program", por.ReducedNodes)
	}
}

// TestPORSeededViolationWitnessReplays: the lost-update lock's mutual
// exclusion violation must survive the reduction, and the witness must
// replay to a real violation on a fresh program instance.
func TestPORSeededViolationWitnessReplays(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		lock := &brokenLock{flag: mem.Bit("flag")}
		return mem, []sim.ProcFunc{
			driver.MutexBody(lock, 1, 0),
			driver.MutexBody(lock, 1, 0),
		}, nil
	}
	res, err := check.Explore(build, metrics.CheckMutualExclusion, check.Options{
		MaxDepth: 60, CollapseSpins: true, POR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("POR exploration missed the lost-update race")
	}
	if !witnessReplays(t, build, metrics.CheckMutualExclusion, check.Options{}, res.Violation.Schedule) {
		t.Errorf("POR witness %v did not replay to a violation", res.Violation.Schedule)
	}
}

// witnessReplays replays a witness schedule (Decisions encoding, crashes
// included) on a fresh program instance and reports whether it
// reproduces a violation: the property fails on the resulting trace, or
// — for ExpectTermination configurations — the maximal replayed run
// left a started process neither terminated nor crashed.
func witnessReplays(t *testing.T, build check.Builder, prop check.Property, opts check.Options, schedule []int) bool {
	t.Helper()
	mem, procs, err := build()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.StartSession(sim.Config{Mem: mem, Procs: procs, MaxSteps: len(schedule) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Seek(schedule); err != nil {
		t.Fatalf("witness replay: %v", err)
	}
	tr := sess.Trace()
	if prop(tr) != nil {
		return true
	}
	if opts.ExpectTermination && sess.Finished() {
		for pid := 0; pid < tr.NumProcs; pid++ {
			if tr.FirstEvent(pid) >= 0 && !tr.Done(pid) && !tr.Crashed(pid) {
				return true
			}
		}
	}
	return false
}

// TestPORAgreesWithReferencePortfolio is the soundness gate of the
// reduction: across the full portfolio — correct algorithms and the
// seeded-broken designs, crash injection included — the reduced and the
// reference exploration must reach the same verdict, and where both find
// a violation, both witnesses must replay to real violations.
func TestPORAgreesWithReferencePortfolio(t *testing.T) {
	for _, j := range portfolioJobs(t) {
		j := j
		t.Run(j.name, func(t *testing.T) {
			refOpts := j.opts
			refOpts.Workers = 1
			ref, err := check.Explore(j.build, j.prop, refOpts)
			if err != nil {
				t.Fatal(err)
			}
			porOpts := j.opts
			porOpts.Workers = 1
			porOpts.POR = true
			por, err := check.Explore(j.build, j.prop, porOpts)
			if err != nil {
				t.Fatal(err)
			}
			if (ref.Violation == nil) != (por.Violation == nil) {
				t.Fatalf("verdicts disagree: reference violation %v, POR violation %v",
					ref.Violation, por.Violation)
			}
			if ref.Violation != nil {
				if !witnessReplays(t, j.build, j.prop, j.opts, ref.Violation.Schedule) {
					t.Errorf("reference witness %v does not replay", ref.Violation.Schedule)
				}
				if !witnessReplays(t, j.build, j.prop, j.opts, por.Violation.Schedule) {
					t.Errorf("POR witness %v does not replay", por.Violation.Schedule)
				}
			}
			// Spin-heavy single-cell programs can come out slightly behind:
			// sleep sets prune transitions, but keying visited nodes on
			// (state, sleep) re-expands states reached with different sleep
			// sets, and on a program with no commuting accesses that
			// overhead has nothing to offset it. Bound the regression.
			if por.States > ref.States+ref.States/4 {
				t.Errorf("POR visited far more states than the reference: %d vs %d", por.States, ref.States)
			}
			t.Logf("states: reference %d, POR %d (%.2fx), reduced nodes %d",
				ref.States, por.States, float64(ref.States)/float64(por.States), por.ReducedNodes)
		})
	}
}

// TestPORParallelMatchesSerialPortfolio runs the static-POR
// explorations of the portfolio side by side (see exploreSideBySide).
func TestPORParallelMatchesSerialPortfolio(t *testing.T) {
	exploreSideBySide(t, true)
}

// TestPORSpinningProcessDoesNotStarveOthers pins the cycle proviso: a
// TAS lock with one holder and one spinner reaches states where the
// spinner's pending test-and-set is independent of the holder's pending
// phase mark, but re-issuing it collapses to the same state. Without the
// proviso the ample set {spin} would close the subtree on the visited
// check and the holder's exit would never be explored; with it the
// exploration must still prove mutual exclusion over the full protocol.
func TestPORSpinningProcessDoesNotStarveOthers(t *testing.T) {
	build := mutexBuilder(mutex.TASLock{}, 2, 1)
	ref, err := check.Explore(build, metrics.CheckMutualExclusion,
		check.Options{MaxDepth: 120, CollapseSpins: true})
	if err != nil {
		t.Fatal(err)
	}
	por, err := check.Explore(build, metrics.CheckMutualExclusion,
		check.Options{MaxDepth: 120, CollapseSpins: true, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	if por.Violation != nil || ref.Violation != nil {
		t.Fatalf("TAS lock misreported: %v / %v", por.Violation, ref.Violation)
	}
	if por.Truncated != ref.Truncated {
		t.Errorf("truncation disagreement: POR %v, reference %v", por.Truncated, ref.Truncated)
	}
	// Both runs must have explored complete lock/unlock rounds: every
	// maximal run ends with both processes done, which only happens if the
	// spinner eventually acquires after the holder's exit was scheduled.
	if por.Runs == 0 {
		t.Error("POR explored no complete runs")
	}
}
