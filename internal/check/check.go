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
	// POR enables partial-order reduction: node expansion is delegated to
	// an ample-set + sleep-set provider (see por.go) that explores a
	// single step branch wherever some process's pending step is
	// property-invisible and provably commutes — per the opset
	// independence oracle — with every other live process's pending step,
	// instead of branching on every ready process. Phase marks and
	// outputs, which the safety properties observe, are never pruned
	// alone, and crash branches are never pruned at all.
	//
	// Soundness contract: the property must depend only on the events the
	// metrics properties depend on — the interleaving of marks, outputs
	// and crashes, and each process's own event subsequence — not on the
	// global order of accesses by different processes. Any violation
	// reported under POR is real (POR only omits schedules; every witness
	// replays), and a reduced exploration that reports no violation has
	// checked a sufficient subset under that contract; -por=false (the
	// zero value here) is the exhaustive reference mode, and the cfccheck
	// -pordiff gate diffs the two verdicts across the whole portfolio.
	//
	// Under POR, States counts expanded (state, sleep set) nodes — the
	// unit of work the reduced search actually performs — and Runs counts
	// the maximal schedules of the reduced tree, so both are expected to
	// be (much) smaller than the reference exploration's; they remain
	// deterministic.
	// Reduction requires at most 64 processes (sleep sets are pid
	// bitmasks); wider programs silently fall back to the full provider.
	POR bool
	// DPOR enables dynamic partial-order reduction (source-DPOR, see
	// dpor.go): instead of the static ample-set provider, every node
	// starts with a single step branch and backtrack points are computed
	// from the conflicts each executed schedule actually exhibits — a
	// race between two steps of the path that the execution's own
	// happens-before relation does not order schedules an alternative
	// first step at the earlier node. Sleep sets and the (state, sleep)
	// visited key carry over from POR, and completed explorations are
	// bit-identical at any Workers count.
	//
	// DPOR takes precedence over POR when both are set (cfccheck's
	// three-way -pordiff gate runs them separately on purpose). The
	// soundness contract is POR's: properties must not observe the
	// global order of accesses by different processes; any violation
	// reported is real and every witness replays. Like POR it requires
	// at most 64 processes and silently falls back beyond. PORAuto does
	// not apply to DPOR: the dynamic reduction needs no profitability
	// fallback, and the known tas/ttas inflation is fixed at the source
	// by live-normalising the sleep mask in the visited key.
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
	// PORAuto tempers the known failure mode of (state, sleep)-keyed
	// reduction: algorithms whose pending steps almost always conflict
	// (tas/ttas — every process hammers one test-and-set bit) get no
	// ample-set pruning, yet still pay the sleep-set key splitting, which
	// inflates States ~10% over the exhaustive reference. With PORAuto
	// (requires POR; otherwise ignored) the exploration first runs
	// reduced; if it found a violation, that is returned as-is (POR
	// verdicts are sound). If the reduction proved unprofitable — fewer
	// than a quarter of the expanded nodes were actually reduced — the
	// exhaustive reference exploration runs too, and the smaller of the
	// two results is returned, with Result.PORDisabled set when the
	// reference won. The decision is a pure function of the
	// (deterministic) reduced exploration, so PORAuto verdicts and counts
	// are reproducible.
	PORAuto bool
	// Workers is the number of goroutines in DPOR's stage pass, each
	// owning a private program instance (one Builder call) and live
	// session; 0 or 1 (the default) stages every task on the calling
	// goroutine. The stage pass is pure and the serial commit pass makes
	// every order-sensitive decision, so results — truncated and
	// violating explorations included — are bit-identical at any value.
	// Every other engine explores on the calling goroutine and ignores
	// Workers; to use several cores on them, explore several jobs at once
	// (as cmd/cfccheck -workers does).
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
	// ReducedNodes counts the expanded nodes whose branch set was a
	// strict subset of the enabled steps (ample-set or sleep-set
	// pruning). Zero without Options.POR.
	ReducedNodes int
	// Violation is the first property failure found, or nil.
	Violation *Violation
	// PORDisabled reports that Options.PORAuto fell back to the
	// exhaustive reference exploration because the reduction was
	// unprofitable for this program; the counts describe the reference
	// run.
	PORDisabled bool
	// SymmetryApplied reports that pid-symmetry canonicalisation was
	// active: Options.Symmetry was set under DPOR and the program
	// declared a matching symmetry group.
	SymmetryApplied bool
}

// Explore exhaustively explores the interleavings of the program under
// the property. It returns an error only for configuration problems; a
// property failure is reported in Result.Violation. Options.DPOR selects
// the wave engine (dpor.go); every other exploration is the serial
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
	if opts.POR && opts.PORAuto {
		return exploreAuto(build, prop, opts, maxDepth, maxStates)
	}
	return exploreSerial(build, prop, opts, maxDepth, maxStates)
}

// exploreAuto implements Options.PORAuto: a reduced exploration first,
// then — only when the reduction was unprofitable — the exhaustive
// reference, keeping whichever visited fewer states, or the reference
// when it found a violation (marked PORDisabled). The fabric ships
// PORAuto jobs whole, so this is the decision's only copy.
func exploreAuto(build Builder, prop Property, opts Options, maxDepth, maxStates int) (Result, error) {
	por, err := exploreSerial(build, prop, opts, maxDepth, maxStates)
	if err != nil {
		return Result{}, err
	}
	// Violations are sound under POR, and a healthy reduction (at least a
	// quarter of expanded nodes reduced) is kept without paying for the
	// reference run.
	if por.Violation != nil || por.ReducedNodes*4 >= por.States {
		return por, nil
	}
	ref := opts
	ref.POR, ref.PORAuto = false, false
	full, err := exploreSerial(build, prop, ref, maxDepth, maxStates)
	if err != nil {
		return Result{}, err
	}
	if full.Violation != nil || full.States < por.States {
		full.PORDisabled = true
		return full, nil
	}
	return por, nil
}

// exploreSerial is the single-goroutine depth-first explorer.
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
	e.provider, e.por = newProvider(opts, len(e.core.procs))
	// A panic in an algorithm body, property or provider surfaces as a
	// checker error carrying the schedule prefix being expanded, as in
	// DPOR's stage pass (dexplorer.runStage).
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				prefix := append([]int(nil), e.core.sess.Decisions()...)
				err = fmt.Errorf("check: panicked expanding schedule prefix %v: %v", prefix, r)
			}
		}()
		return e.dfs(nil, 0)
	}()
	e.core.close()
	if err != nil {
		return Result{}, err
	}
	return Result{
		States:       len(e.visited),
		Runs:         e.runs,
		Truncated:    e.truncated,
		ReducedNodes: e.reduced,
		Violation:    e.violation,
	}, nil
}

type explorer struct {
	core      replayCore
	prop      Property
	opts      Options
	maxDepth  int
	maxStates int
	provider  enabledProvider
	por       bool

	visited   map[uint64]struct{}
	runs      int
	reduced   int
	peeked    int // sibling replays skipped by the batch peek
	truncated bool
	violation *Violation
}

func (e *explorer) dfs(schedule []int, sleep uint64) error {
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
	if e.por {
		// A node is (state, sleep set): the same state arrived at with a
		// different sleep set explores different branches, so the visited
		// key must separate them — that keeps expansion a pure function
		// of the node, and with it the exploration order-independent.
		//
		// The mask is first normalised: restricted to the live pids — a
		// sleep bit of a terminated or crashed process is never consulted
		// again (dead processes have no pending step to skip and, the
		// checker never restarting, never revive), so two arrivals
		// differing only in dead sleep bits expand identically and must
		// share a key — and then conflicting sleepers are woken
		// (normalizeSleep), which collapses the per-state key fan-out on
		// conflict-heavy programs. Together these fix the tas/ttas state
		// inflation PR 6 papered over with PORAuto: processes finishing
		// at different points and single-cell conflicts used to strew
		// distinct sleep masks over otherwise-equal states.
		sleep = normalizeSleep(&e.core, e.core.pendingOps(), sleep&pidMask(live))
		h = mix64(h, sleep)
	}
	if _, seen := e.visited[h]; seen {
		return nil
	}
	if len(e.visited) >= e.maxStates {
		e.truncated = true
		return nil
	}
	e.visited[h] = struct{}{}

	// First branch first: the live session's decision stack still equals
	// schedule here, so the child's Seek extends it by one event instead
	// of replaying the prefix; a later sibling rewinds the session to
	// this node, re-running only the processes that moved below it.
	br, reduced := e.provider.branches(&e.core, live, schedule, sleep)
	if reduced {
		e.reduced++
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
	// Non-POR explorations only: under POR the key mixes in the child's
	// normalised sleep set, which is not known until the child's own
	// pending steps are.
	var skip []bool
	if !e.por && len(schedule)+1 < e.maxDepth {
		pend := e.core.pendingOps()
		for i, b := range br {
			key, ok := e.peekKey(b, live, pend)
			if !ok {
				continue
			}
			if _, seen := e.visited[key]; seen {
				if skip == nil {
					skip = make([]bool, len(br))
				}
				skip[i] = true
				e.peeked++
			}
		}
	}

	for i, b := range br {
		if skip != nil && skip[i] {
			continue
		}
		if err := e.dfs(append(schedule, b.entry), b.sleep); err != nil {
			return err
		}
		if e.violation != nil {
			return nil
		}
	}
	return nil
}

// peekKey computes the visited key the child reached via branch b would
// derive for itself — stateHash over the child's cell values and
// histories — without replaying the child. It reads the parent node's
// fold (c.vals, c.hist, c.chain — valid since the parent's stateAt) and
// the parent's pending steps: the child differs from the parent in at
// most one cell and in the branch process's history, whose canonical
// length and chain digest follow from one appendLen (a collapsed append
// is a prefix, whose digest is already in the chain). The auto
// termination mark a completing step would add is kept out of histories
// for exactly this purpose. ok is false when the branch cannot be peeked
// (scratch misalignment or an unknown entry kind); the caller then
// replays it normally.
func (e *explorer) peekKey(b branch, live []int, pend []sim.PendingOp) (key uint64, ok bool) {
	c := &e.core
	var en histEntry
	pid := -1
	cell := int32(-1)
	var newVal uint64
	switch {
	case b.entry >= 0 && b.entry < len(c.procs):
		pid = b.entry
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
	case b.entry < 0 && -b.entry-1 < len(c.procs):
		pid = -b.entry - 1
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
