package check

import (
	"fmt"

	"cfc/internal/sim"
)

// Property is a safety predicate over a (partial) run: it must return an
// error if any state of the trace violates the property. The metrics
// package's CheckMutualExclusion, CheckUniqueOutputs and CheckDetection
// are Properties. DPOR's stage pass (Options.Workers > 1) and callers
// that explore several jobs at once call it concurrently from several
// goroutines, each on its own trace, so it must not keep mutable state
// between calls — a pure function of the trace, which all three metrics
// properties are.
type Property func(t *sim.Trace) error

// Builder constructs the memory and process bodies of the program under
// check. It must be deterministic: every call must produce an identical
// program. The serial explorer calls it once and replays that one program
// for every schedule; the DPOR engine calls it once per stage-pass
// worker (Options.Workers), so each worker replays a private instance.
// One exploration never calls it concurrently, but distinct instances are
// driven concurrently — by the stage pass, and by callers that explore
// several jobs at once — so instances must not share mutable state
// through package-level variables. That holds for every algorithm body
// in this repository, all of which are pure functions of the values
// their shared-memory operations return.
type Builder func() (*sim.Memory, []sim.ProcFunc, error)

// Options configures an exploration.
type Options struct {
	// MaxDepth bounds the schedule length (scheduled events per run).
	// Zero means 200.
	MaxDepth int
	// MaxStates bounds the number of distinct states explored; the
	// exploration reports Truncated when exceeded. Zero means 1 << 20.
	MaxStates int
	// ExploreCrashes additionally branches on crashing each process (at
	// most one crash per process per run).
	ExploreCrashes bool
	// ExpectTermination requires every maximal run (empty ready set) to
	// end with all started processes terminated or crashed; a process
	// that can neither step nor finish would be a simulator-level
	// deadlock.
	ExpectTermination bool
	// CollapseSpins canonicalises busy-wait loops when hashing states:
	// wherever a process history repeats a short period (up to 4 events)
	// with identical operations, registers and return values, the
	// repetition is reduced to a single occurrence of the period, so
	// "spun 3 times" and "spun 30 times" merge — also when the process
	// has since moved past the spin. This turns the unbounded spin
	// chains of deadlock-free mutex algorithms into finitely many
	// states, and because the reduction is applied online (it commutes
	// with extending the history by one event), the state a schedule
	// reaches does not depend on the order in which states are
	// discovered.
	//
	// The reduction is sound only for algorithms whose busy-wait loops
	// carry no loop-local state (no iteration counters, no accumulated
	// values): every algorithm in this repository except the backoff
	// variants qualifies. It is off by default.
	CollapseSpins bool
	// POR is ignored.
	//
	// Deprecated: the static ample-set reduction it selected is gone;
	// with DPOR false the exploration is the reference. The field stays
	// only because the end-to-end benchmark (perfbench) still sets it;
	// the benchmark change of ROADMAP item 2, step 1 deletes it.
	POR bool
	// DPOR selects dynamic partial-order reduction (source-DPOR, see
	// dpor.go) instead of the reference depth-first search: every node
	// starts with a single step branch, and backtrack points are computed
	// from the conflicts each executed schedule actually exhibits — a
	// race between two steps of the path that the execution's own
	// happens-before relation does not order schedules an alternative
	// first step at the earlier node. The visited set is keyed by (state,
	// sleep set), and completed explorations are bit-identical at any
	// Workers count.
	//
	// DPOR is not sound. Where it prunes a revisited state it only
	// approximates the races the pruned subtree would have found (the
	// visited-hit compensation, see the stateful-DPOR caveat in dpor.go),
	// and that approximation proves two broken locks the reference
	// refutes: Lamport's fast mutex that ignores its read of x after
	// writing y, and Peterson's lock with its turn write before its flag
	// write (TestReferenceRefutesSeededMutants pins both). A violation
	// DPOR reports is real and its witness replays, but its "proved" is
	// not a proof; false, the default, is the sound reference. Properties
	// must not observe the global order of accesses by different
	// processes. DPOR requires at most 64 processes (sleep sets are pid
	// bitmasks) and runs the reference beyond.
	DPOR bool
	// Symmetry canonicalises the visited key under the program's
	// declared pid-permutation group before lookup, so one
	// representative per symmetry orbit is expanded (see symmetry.go and
	// sim/symmetry.go for the declaration surface and the soundness
	// conditions: uniform bodies up to declared pid encodings, and a
	// pid-symmetric property — all the metrics properties qualify). It
	// is honoured by the DPOR engine only, and silently stays off when
	// the program's Memory declares no symmetry spec, the declared
	// process count differs from the program's, or more than 6 processes
	// would make the group too large. Result.SymmetryApplied reports
	// whether it was active.
	Symmetry bool
	// PORAuto is ignored.
	//
	// Deprecated: the fallback it selected went with the static
	// reduction. The field stays only because the end-to-end benchmark
	// (perfbench) still sets it; the benchmark change of ROADMAP item 2,
	// step 1 deletes it.
	PORAuto bool
	// Workers is the number of goroutines in DPOR's stage pass, each
	// owning a private program instance (one Builder call) and live
	// session; 0 or 1 (the default) stages every task on the calling
	// goroutine. The stage pass is pure and the serial commit pass makes
	// every order-sensitive decision, so results — truncated and
	// violating explorations included — are bit-identical at any value.
	// The reference exploration runs on the calling goroutine and
	// ignores Workers; to use several cores on it, explore several jobs
	// at once (as cmd/cfccheck -workers does).
	Workers int
}

// Violation describes a property failure found during exploration.
type Violation struct {
	// Schedule reproduces the failure: non-negative entries schedule that
	// process's next event; entry -pid-1 crashes process pid.
	Schedule []int
	// Err is the property's error.
	Err error
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("check: violation under schedule %v: %v", v.Schedule, v.Err)
}

// Result summarises an exploration.
type Result struct {
	// States is the number of distinct states visited.
	States int
	// Runs is the number of maximal schedules explored to completion.
	Runs int
	// Truncated reports that a bound (depth or states) was hit, so the
	// exploration is not a full proof.
	Truncated bool
	// ReducedNodes counts the DPOR nodes that completed without
	// exploring every live process's step (backtracking or sleep sets
	// left some out). Zero for the reference exploration, which expands
	// every node in full.
	ReducedNodes int
	// Violation is the first property failure found, or nil.
	Violation *Violation
	// SymmetryApplied reports that pid-symmetry canonicalisation was
	// active: Options.Symmetry was set under DPOR and the program
	// declared a matching symmetry group.
	SymmetryApplied bool
}

// Explore exhaustively explores the interleavings of the program under
// the property. It returns an error only for configuration problems; a
// property failure is reported in Result.Violation. Options.DPOR selects
// the wave engine (dpor.go); otherwise the exploration is the reference
// depth-first search on the calling goroutine.
func Explore(build Builder, prop Property, opts Options) (Result, error) {
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 200
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	if opts.DPOR {
		return exploreDPOR(build, prop, opts, maxDepth, maxStates)
	}
	return exploreSerial(build, prop, opts, maxDepth, maxStates)
}

// exploreSerial is the reference explorer: a depth-first search on one
// goroutine that branches on every live process at every node.
func exploreSerial(build Builder, prop Property, opts Options, maxDepth, maxStates int) (Result, error) {
	e := &explorer{
		prop:      prop,
		opts:      opts,
		maxDepth:  maxDepth,
		maxStates: maxStates,
		visited:   make(map[uint64]struct{}),
	}
	if err := e.core.init(build, maxDepth, opts.CollapseSpins); err != nil {
		return Result{}, err
	}
	// A panic in an algorithm body or the property surfaces as a checker
	// error carrying the schedule prefix being expanded, as in DPOR's
	// stage pass (dexplorer.runStage).
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				prefix := append([]int(nil), e.core.sess.Decisions()...)
				err = fmt.Errorf("check: panicked expanding schedule prefix %v: %v", prefix, r)
			}
		}()
		return e.dfs(nil)
	}()
	e.core.close()
	if err != nil {
		return Result{}, err
	}
	return Result{
		States:    len(e.visited),
		Runs:      e.runs,
		Truncated: e.truncated,
		Violation: e.violation,
	}, nil
}

type explorer struct {
	core      replayCore
	prop      Property
	opts      Options
	maxDepth  int
	maxStates int

	visited   map[uint64]struct{}
	runs      int
	peeked    int // sibling replays skipped by the batch peek
	truncated bool
	violation *Violation
}

func (e *explorer) dfs(schedule []int) error {
	if e.violation != nil {
		return nil
	}
	tr, live, err := e.core.stateAt(schedule)
	if err != nil {
		return err
	}

	if err := e.prop(tr); err != nil {
		e.violation = &Violation{Schedule: append([]int(nil), schedule...), Err: err}
		return nil
	}

	if len(live) == 0 {
		e.runs++
		if e.opts.ExpectTermination {
			if pid, ok := unterminated(tr); ok {
				e.violation = &Violation{
					Schedule: append([]int(nil), schedule...),
					Err:      unterminatedErr(pid),
				}
			}
		}
		return nil
	}

	if len(schedule) >= e.maxDepth {
		e.truncated = true
		return nil
	}

	h := e.core.stateHash()
	if _, seen := e.visited[h]; seen {
		return nil
	}
	if len(e.visited) >= e.maxStates {
		e.truncated = true
		return nil
	}
	e.visited[h] = struct{}{}

	// The branches, in order: a step of each live process in ascending
	// pid order, then, with crash exploration, a crash of each (a live
	// process has not crashed, and the checker never restarts one). Branch
	// i is branchEntry(live, i).
	nb := len(live)
	if e.opts.ExploreCrashes {
		nb *= 2
	}

	// Batch-peek the siblings before descending into any of them: every
	// child's visited key is a pure function of this node's folded state
	// (cell values plus per-pid histories, both still valid here) and the
	// branch's pending step, so the keys of all siblings can be computed
	// in one pass over the shared parent state. A child whose key is
	// already visited is skipped without a session Seek — which
	// for every sibling after the first would rewind the session and
	// re-run the processes the first sibling's subtree moved. Terminal,
	// violating and depth-truncated children never enter the visited set
	// (dfs returns before marking), so the peek can only skip children
	// dfs would prune anyway; the depth guard keeps the boundary case
	// (child at maxDepth must report Truncated) on the replay path.
	var skip []bool
	if len(schedule)+1 < e.maxDepth {
		pend := e.core.pendingOps()
		for i := range nb {
			key, ok := e.peekKey(branchEntry(live, i), live, pend)
			if !ok {
				continue
			}
			if _, seen := e.visited[key]; seen {
				if skip == nil {
					skip = make([]bool, nb)
				}
				skip[i] = true
				e.peeked++
			}
		}
	}

	// First branch first: the live session's decision stack still equals
	// schedule here, so the child's Seek extends it by one event instead
	// of replaying the prefix; a later sibling rewinds the session to
	// this node, re-running only the processes that moved below it.
	for i := range nb {
		if skip != nil && skip[i] {
			continue
		}
		if err := e.dfs(append(schedule, branchEntry(live, i))); err != nil {
			return err
		}
		if e.violation != nil {
			return nil
		}
	}
	return nil
}

// branchEntry is the schedule entry of a node's branch i (see
// explorer.dfs): a step of live[i] for i < len(live), else a crash of
// live[i-len(live)], in the Decisions encoding.
func branchEntry(live []int, i int) int {
	if i < len(live) {
		return live[i]
	}
	return -live[i-len(live)] - 1
}

// peekKey computes the visited key the child reached via schedule entry
// entry would derive for itself — stateHash over the child's cell values
// and histories — without replaying the child. It reads the parent
// node's fold (c.vals, c.hist, c.chain — valid since the parent's
// stateAt) and the parent's pending steps: the child differs from the
// parent in at most one cell and in the branch process's history, whose
// canonical length and chain digest follow from one appendLen (a
// collapsed append is a prefix, whose digest is already in the chain).
// The auto termination mark a completing step would add is kept out of
// histories for exactly this purpose. ok is false when the branch cannot
// be peeked (scratch misalignment or an unknown entry); the caller then
// replays it normally.
func (e *explorer) peekKey(entry int, live []int, pend []sim.PendingOp) (key uint64, ok bool) {
	c := &e.core
	var en histEntry
	pid := -1
	cell := int32(-1)
	var newVal uint64
	switch {
	case entry >= 0 && entry < len(c.procs):
		pid = entry
		var po sim.PendingOp
		found := false
		for i, q := range live {
			if q == pid {
				if i < len(pend) && pend[i].PID == pid {
					po, found = pend[i], true
				}
				break
			}
		}
		if !found {
			return 0, false
		}
		en = c.pendingEntry(po)
		if po.Kind == sim.KindAccess {
			mask := po.Acc().Mask()
			cur := c.vals[po.Cell]
			next, _, _ := po.Op.Apply((cur&mask)>>po.Shift, po.Arg)
			cell = po.Cell
			newVal = cur&^mask | (next<<po.Shift)&mask
		}
	case entry < 0 && -entry-1 < len(c.procs):
		pid = -entry - 1
		en = histEntry{kind: uint8(sim.KindCrash)}
	default:
		return 0, false
	}

	n := c.appendLen(pid, en)
	var d uint64
	if n > len(c.hist[pid]) {
		d = chainEntry(c.histDigest(pid), en.shape(), en.ret, en.aux)
	} else {
		d = c.chain[pid][n-1]
	}
	return c.successorHash(cell, newVal, pid, n, d), true
}

// unterminated scans a maximal run for a process that started but neither
// terminated nor crashed — a simulator-level deadlock under
// Options.ExpectTermination.
func unterminated(tr *sim.Trace) (int, bool) {
	for pid := 0; pid < tr.NumProcs; pid++ {
		if tr.FirstEvent(pid) >= 0 && !tr.Done(pid) && !tr.Crashed(pid) {
			return pid, true
		}
	}
	return -1, false
}

func unterminatedErr(pid int) error {
	return fmt.Errorf("process %d started but neither terminated nor crashed", pid)
}
