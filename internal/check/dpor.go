package check

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"cfc/internal/opset"
	"cfc/internal/sim"
)

// This file is the dynamic partial-order reduction engine
// (Options.DPOR): a source-DPOR-style explorer that computes backtrack
// sets from the conflicts each executed schedule actually exhibits.
//
// # Why dynamic
//
// A reduction that decides from a node's *pending* steps alone whether
// postponing a process is safe cannot see a conflict that is not yet
// pending: opaque process bodies hide their future accesses. DPOR
// inverts the burden of proof: every node starts with a single step
// branch, and whenever an executed step is found to race with an
// earlier step of the path — dependent per the brute-force-proven
// opset.Independent oracle, and not already ordered by the
// happens-before relation the execution itself induces — a backtrack
// point is added at the earlier step's node, scheduling an alternative
// first step (an "initial" of the reordered suffix) for exploration
// there. Reduction then comes from what did NOT conflict, measured, not
// guessed.
//
// # Node engine
//
// Exploration is a fork/join tree over dnodes, driven in level-
// synchronised waves. Each wave is split in two:
//
//   - The stage pass visits every task of the wave (in-process workers
//     pull from a shared index; the fabric fans the same pass out to
//     WaveProbers in other processes — see wave.go): replay its schedule
//     (Session.Seek, shared-prefix fast path), race-check the arriving
//     step against the path, check the property, and — for nodes that
//     may expand — compute the visited key, choose the first child batch
//     (the smallest awake pid whose step progresses under spin collapse,
//     else every awake pid: the cycle proviso, see
//     replayCore.progresses), and precompute the compensation ghosts a
//     revisit would need. The pass is PURE: a
//     task's WaveReport is a function of its schedule and inherited
//     sleep mask alone. Race-initials masks for ancestors come back as
//     (depth, mask) pairs instead of being written anywhere.
//
//   - The commit pass then runs serially over the wave: first every
//     report's masks are registered at the ancestor nodes (they form a
//     deduplicated set, insensitive to arrival order — registering them
//     all before any commit reproduces the old in-pass writes exactly),
//     then the schedule-least violation of the wave is chosen if any,
//     then each task commits in task order: visited-set arbitration,
//     counters, child dispatch and join advancement. Every choice that
//     depends on what was explored before — above all, which of two
//     same-key nodes is expanded and which is pruned — is made here, in
//     a deterministic sequence.
//
// When a node's outstanding children all complete, the node joins:
// backtrack masks accumulated by races inside the completed subtrees
// are resolved (in sorted mask order) into the next child batch; when
// none remain, the crash wave (never pruned) runs; then the node
// completes and its parent's join advances.
//
// Determinism at any worker count — in-process goroutines or fabric
// workers alike — is structural, by induction over waves: the first
// wave is the root; the stage pass of a wave computes a pure function
// of the wave's task list; and the commit pass consumes those results
// in a fixed serial order, so the next wave's task list — and every
// insert into the visited set, which decides revisit pruning — is
// identical for one worker or many. The earlier work-stealing design
// had two unfixable races here: two concurrent race additions with
// different initials masks could schedule different pids depending on
// arrival order (mask {1,2} then {2} schedules both pids; the reverse
// schedules only pid 2 — solved by deferring the choice to the join
// over the sorted mask set), and two in-flight nodes with the same
// visited key could swap winner and loser, changing which path's
// ancestors receive the subtree's real backtrack additions and which
// receive the compensation approximation (solved only by the serial
// commit pass).
//
// # Sleep sets
//
// Children carry sleep sets with the por.go semantics: when a node
// dispatches branch q after branch p, q's subtree starts with p asleep
// unless p's pending step depends on q's step (filterSleep). Sleeping
// pids are skipped when choosing batches, and a backtracked pid found
// asleep is already covered by the sibling that put it to sleep.
//
// # Happens-before and races
//
// Each decision of the path gets a vector clock: clk[j][q] is the
// largest per-pid sequence number of a q-step that happens before (or
// is) step j, where happens-before is the transitive closure of program
// order and dependence. Step j races with a later step i when they are
// dependent, of different pids, and j does not happen before i through
// intermediate steps. For a race (j, i), the reordering candidates are
// the steps after j that j does not happen before (plus i itself), and
// the pids that can start that reordered suffix — those whose first
// candidate step has no happens-before predecessor among the
// candidates — are its initials (the "source set" refinement: only
// initials need exploring at j, not every racing pid). Unless an
// initial is already explored or asleep at j's node, the initials mask
// is registered there, and the node's next join schedules the smallest
// enabled pid of each registered mask not covered by then. Initials are
// always enabled at the ancestor node: the checker never restarts
// processes, so a pid live at a deeper node was live at every shallower
// one.
//
// Dependence over executed steps mirrors pendingIndependent: same pid —
// dependent (program order); crashes — independent of everything else
// (they commute; crash branches are fully expanded anyway); Local —
// independent; access vs access — the opset oracle; property-visible
// steps (phase marks and outputs) — mutually dependent, since the
// safety properties observe their interleaving. The run loop's
// self-recorded termination mark (KindMark, PhaseDone) consumes no
// scheduling decision and no property observes it; syncPath skips it.
// Since only accesses to one cell and visible steps among themselves
// can be dependent, the clock and race scans walk the worker's index of
// the path (dscratch.deps) rather than the whole path.
//
// # The stateful-DPOR caveat, and the compensation
//
// Classic source-DPOR explores a tree; this engine also prunes visited
// states (it must — the portfolio's spin loops make the tree infinite
// under collapse). Pruning a revisit discards the subtree that would
// have raced its steps against the *current* path, so its backtrack
// additions to current-path ancestors would be lost. The engine
// compensates at every visited hit: the hit state's pending steps, and
// one step per recorded access shape in each live process's history
// (the algorithms under check revisit their cells), are race-checked
// against the path as if they were about to execute, and their
// additions applied. This is an approximation, not a proof: a pruned
// subtree can perform an access shape its history has not shown yet,
// and the history ghosts skip phase marks and outputs, whose order is
// what the safety properties observe. The gap is real: the
// compensation proves two broken locks that the reference refutes at
// n = 2 — Lamport's fast mutex that ignores its read of x after writing
// y, and Peterson's lock with its turn write before its flag write
// (TestReferenceRefutesSeededMutants pins both against the reference).
// So DPOR is not sound. A violation it reports is real (only schedules
// are omitted, never invented) and every witness replays, but its
// "proved" is not a proof. The sound exploration is the reference
// (Options.DPOR false, cfccheck -dpor=false). The two-way cfccheck
// -pordiff gate compares DPOR's verdicts with it across the portfolio,
// crash variants included, in CI; on the portfolio's correct algorithms
// both say "proved", so that gate cannot show the gap.
//
// Symmetry reduction (symmetry.go) composes here: the visited key is
// canonicalised under the declared pid-permutation group before lookup,
// so only one representative per orbit is expanded. It changes no
// schedule the engine executes, only what it prunes.

// dnode is one node of the DPOR exploration tree. Since the stage pass
// became pure (reports carry masks instead of writing them), every field
// is either immutable after creation (parent/entry/depth/sleep) or
// mutated only by the serial commit pass — no lock needed.
type dnode struct {
	parent *dnode
	entry  int // decision from parent to this node (pid, or -pid-1 crash)
	depth  int32
	sleep  uint64

	pend    []sim.PendingOp // pending steps at expansion (node-owned copy)
	live    uint64          // enabled pid mask at expansion
	accum   uint64          // sleep ∪ step pids dispatched so far
	done    uint64          // step pids dispatched
	masks   []uint64        // race-initials sets awaiting the next join (deduped)
	out     int32           // dispatched children not yet completed
	crashed bool            // crash wave dispatched
}

// dtask is one unit of the current wave: a created-but-unexpanded node
// and the schedule reaching it.
type dtask struct {
	node  *dnode
	sched []int
}

// dstage is the stage pass's result for one task, consumed by the
// commit pass: the wire-shaped report plus the original violation error
// (in-process stages keep the real error value; wire-fed stages carry a
// reconstructed one — same message either way).
type dstage struct {
	t    dtask
	rep  WaveReport
	verr error
}

// devent is one decision of a path, in the form race detection needs.
type devent struct {
	pid  int32
	kind uint8
	vis  bool      // property-visible: phase mark or output
	acc  opset.Acc // valid for KindAccess
	seq  int32     // 1-based index among this pid's decisions
	prev int32     // path index of this pid's previous decision (-1: none)
	clk  []int32   // vector clock (len = nprocs), aliases dscratch.clkbuf
}

// dscratch is one worker's path-analysis scratch: the decision entries
// of the schedule last synced, their vector clocks, and an index of
// them by what a step can depend on. Consecutive tasks share a schedule
// prefix; syncPath keeps the entries, clocks and index below it and
// decodes only the rest.
type dscratch struct {
	ents     []devent
	sched    []int // the decisions ents[:len(sched)] decode (and the index holds)
	clkbuf   []int32
	clkValid int
	seqs     []int32 // per pid: its decisions among the held entries
	last     []int32 // per pid: index of its last held decision (-1: none)
	// The index: per cell, the ascending indices of the entries that
	// access it, and the ascending indices of the property-visible
	// entries.
	byCell [][]int32
	vis    []int32
	// scanAll makes every scan walk the whole path, ignoring the index.
	// Only tests set it, to hold the index to the unindexed analysis.
	scanAll  bool
	races    []int
	cand     []int
	ghostClk []int32
}

func newDScratch(maxDepth, nprocs, ncells int) *dscratch {
	sc := &dscratch{
		ents:     make([]devent, maxDepth+1),
		clkbuf:   make([]int32, (maxDepth+1)*nprocs),
		seqs:     make([]int32, nprocs),
		last:     make([]int32, nprocs),
		byCell:   make([][]int32, ncells),
		ghostClk: make([]int32, nprocs),
	}
	for i := range sc.last {
		sc.last[i] = -1
	}
	return sc
}

// push appends decision dec, which executed as trace event ev, to the
// path and its index. An executed access always has a valid operation
// on a cell of the program's memory — the memory refuses any other
// before the event is recorded — so every access has its cell's list.
func (sc *dscratch) push(dec int, ev *sim.Event) {
	i := len(sc.sched)
	pid := ev.PID
	np := len(sc.seqs)
	sc.seqs[pid]++
	d := &sc.ents[i]
	*d = devent{pid: int32(pid), kind: uint8(ev.Kind), seq: sc.seqs[pid], prev: sc.last[pid], clk: sc.clkbuf[i*np : (i+1)*np]}
	sc.last[pid] = int32(i)
	switch ev.Kind {
	case sim.KindAccess:
		d.acc = opset.Acc{Op: ev.Op, Cell: ev.Cell, Shift: ev.Shift, Width: ev.Width, Arg: ev.Arg}
		sc.byCell[ev.Cell] = append(sc.byCell[ev.Cell], int32(i))
	case sim.KindMark, sim.KindOutput:
		d.vis = true
		sc.vis = append(sc.vis, int32(i))
	}
	sc.sched = append(sc.sched, dec)
}

// truncate pops the path back to its first k entries, undoing push in
// reverse order: each popped entry is the last one of its index list,
// and restores its pid's sequence number and last decision.
func (sc *dscratch) truncate(k int) {
	for len(sc.sched) > k {
		sc.sched = sc.sched[:len(sc.sched)-1]
		d := &sc.ents[len(sc.sched)]
		sc.seqs[d.pid] = d.seq - 1
		sc.last[d.pid] = d.prev
		switch {
		case d.vis:
			sc.vis = sc.vis[:len(sc.vis)-1]
		case d.kind == uint8(sim.KindAccess):
			l := &sc.byCell[d.acc.Cell]
			*l = (*l)[:len(*l)-1]
		}
	}
	sc.clkValid = min(sc.clkValid, k)
}

// deps returns the path entries a step g can depend on, besides its own
// pid's: the ascending indices of the accesses to g's cell, or of the
// property-visible entries; all is true when the whole path must be
// scanned instead. Accesses to different cells commute when both
// operations are valid (opset.Independent), an access and a mark or
// output are independent, and a crash or a local step depends on no
// other pid's step (see deventsDependent). A pending step's operation
// has not been checked against the memory's model yet, so an access
// whose operation opset does not know, or whose cell is out of range,
// scans the whole path.
func (sc *dscratch) deps(g *devent) (list []int32, all bool) {
	switch {
	case sc.scanAll:
		return nil, true
	case g.kind == uint8(sim.KindAccess):
		if !g.acc.Op.Valid() || g.acc.Cell < 0 || int(g.acc.Cell) >= len(sc.byCell) {
			return nil, true
		}
		return sc.byCell[g.acc.Cell], false
	case g.vis:
		return sc.vis, false
	}
	return nil, false
}

// joinDeps joins into g.clk the clock of every entry before path
// position end that g depends on, in path order. When races is non-nil,
// entries that are dependent but NOT ordered before g by the
// accumulating happens-before closure — the races — are appended to it
// (the closure shields: once a dependent entry's clock is joined,
// everything it dominates is ordered).
func (sc *dscratch) joinDeps(g *devent, end int, races *[]int) {
	list, all := sc.deps(g)
	n := len(list)
	if all {
		n = end
	}
	for x := 0; x < n; x++ {
		i := x
		if !all {
			if i = int(list[x]); i >= end {
				break
			}
		}
		f := &sc.ents[i]
		if f.pid == g.pid || !deventsDependent(f, g) {
			continue
		}
		if races != nil && f.seq > g.clk[f.pid] {
			*races = append(*races, i)
		}
		joinClk(g.clk, f.clk)
	}
}

// dconfig is the stage pass's configuration: everything a task's
// WaveReport is a function of, besides the task itself. It is shared by
// the in-process engine (dexplorer embeds it) and the fabric's
// WaveProber, which is what makes distributed waves bit-identical by
// construction — both run the same stage code with the same config.
type dconfig struct {
	prop     Property
	opts     Options
	maxDepth int
	nprocs   int
	sym      *symCanon
}

// dexplorer is the shared state of one DPOR exploration: the dconfig
// the stage pass needs plus the serial commit state. WaveMaster wraps
// one of these without any replay cores — commit never replays.
type dexplorer struct {
	dconfig
	maxStates int
	crashes   bool

	visited   visitedSet // inserted only by commitStage
	runs      int
	reduced   int
	truncated bool
	cancel    atomic.Bool

	mu       sync.Mutex
	firstErr error

	viol *Violation // written only by advance
	wave []dtask    // current wave, in task order
}

// newDExplorer builds the engine positioned at the root wave. The
// symmetry canon comes from the caller (nil when not applied).
func newDExplorer(prop Property, opts Options, maxDepth, maxStates, nprocs int, sym *symCanon) *dexplorer {
	return &dexplorer{
		dconfig: dconfig{
			prop:     prop,
			opts:     opts,
			maxDepth: maxDepth,
			nprocs:   nprocs,
			sym:      sym,
		},
		maxStates: maxStates,
		crashes:   opts.ExploreCrashes,
		wave:      []dtask{{node: &dnode{entry: -1 << 20}, sched: []int{}}},
	}
}

// exploreDPOR runs the dynamic partial-order reduction engine. It
// serves every worker count: Workers <= 1 runs the same wave loop on
// one worker, and explorations are bit-identical across counts —
// including which violation is reported and where a budget truncates.
// Programs wider than 64 processes run the reference exploration
// instead (sleep sets are pid bitmasks).
func exploreDPOR(build Builder, prop Property, opts Options, maxDepth, maxStates int) (Result, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	cores := make([]*replayCore, workers)
	for i := range cores {
		cores[i] = new(replayCore)
		if err := cores[i].init(build, maxDepth, opts.CollapseSpins); err != nil {
			return Result{}, err
		}
	}
	defer func() {
		for _, c := range cores {
			if c != nil {
				c.close()
			}
		}
	}()
	nprocs := len(cores[0].procs)
	if nprocs > 64 {
		fb := opts
		fb.DPOR = false
		return exploreSerial(build, prop, fb, maxDepth, maxStates)
	}
	var sym *symCanon
	if opts.Symmetry {
		sym = newSymCanon(cores[0].mem, nprocs)
	}
	e := newDExplorer(prop, opts, maxDepth, maxStates, nprocs, sym)

	scs := make([]*dscratch, workers)
	for i := range scs {
		scs[i] = newDScratch(maxDepth, nprocs, cores[0].mem.NumCells())
	}
	// Stage pass: workers pull tasks from a shared index. Order of
	// processing is irrelevant by design (see the file comment). The
	// calling goroutine is worker 0, so a one-worker exploration starts
	// no goroutine at all.
	var stages []dstage
	var idx atomic.Int64
	work := func(id int) {
		for !e.cancel.Load() {
			i := int(idx.Add(1)) - 1
			if i >= len(stages) {
				return
			}
			e.runStage(id, cores[id], scs[id], &stages[i])
		}
	}
	for len(e.wave) > 0 {
		if cap(stages) < len(e.wave) {
			stages = make([]dstage, len(e.wave))
		}
		stages = stages[:len(e.wave)]
		for i := range stages {
			stages[i] = dstage{t: e.wave[i]}
		}
		idx.Store(0)
		var wg sync.WaitGroup
		for w := 1; w < min(workers, len(stages)); w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				work(id)
			}(w)
		}
		work(0)
		wg.Wait()
		if e.firstErr != nil {
			return Result{}, e.firstErr
		}
		e.advance(stages)
	}
	return e.result(), nil
}

// runStage computes one task's stage in-process, containing panics as
// checker errors like the serial DFS does.
func (e *dexplorer) runStage(id int, core *replayCore, sc *dscratch, st *dstage) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("check: worker %d panicked expanding schedule prefix %v: %v", id, st.t.sched, r))
		}
	}()
	verr, err := e.dconfig.stage(core, sc, st.t.sched, st.t.node.sleep, &st.rep)
	if err != nil {
		e.fail(err)
		return
	}
	if verr != nil {
		st.rep.HasViol = true
		st.verr = verr
	}
}

// stage is the pure pass for one task: replay, path sync, race analysis
// of the arriving step, property check, and — for nodes that may expand
// — the visited key, the first-batch choice and the compensation ghosts
// a revisit would need. The report is a pure function of (sched,
// nodeSleep) under this config; backtrack masks come back as
// (depth, mask) pairs for the commit pass to register. A returned
// violErr is the property (or termination) violation at this node; err
// is an internal failure.
func (cfg *dconfig) stage(core *replayCore, sc *dscratch, sched []int, nodeSleep uint64, rep *WaveReport) (violErr, err error) {
	tr, live, err := core.stateAt(sched)
	if err != nil {
		return nil, err
	}
	if err := cfg.syncPath(sc, core, tr, sched); err != nil {
		return nil, err
	}
	m := len(sched)
	if m > 0 {
		// Race-check the arriving step against the path — always, even
		// when the node turns out to be pruned or a leaf: the executed
		// transition exists either way, and its races are what schedule
		// the reorderings.
		cfg.analyze(sc, m, &rep.Masks)
	}
	if perr := cfg.prop(tr); perr != nil {
		return perr, nil
	}
	if len(live) == 0 {
		rep.Run = true
		if cfg.opts.ExpectTermination {
			if pid, ok := unterminated(tr); ok {
				return unterminatedErr(pid), nil
			}
		}
		rep.Leaf = true
		return nil, nil
	}
	if m >= cfg.maxDepth {
		rep.Trunc = true
		rep.Leaf = true
		return nil, nil
	}
	pend := core.pendingOps()
	if len(pend) != len(live) {
		return nil, fmt.Errorf("check: internal error: %d pending ops for %d live processes", len(pend), len(live))
	}

	base := core.stateHash()
	lm := pidMask(live)
	// The node's effective sleep set: live pids only, conflicting
	// sleepers woken (see normalizeSleep in por.go). Both the visited
	// key and the expansion use it, so expansion stays a pure function
	// of the key.
	sleep := normalizeSleep(core, pend, nodeSleep&lm)
	rep.Key = core.canonicalKey(cfg.sym, base, sleep)
	rep.Pend = append([]sim.PendingOp(nil), pend...)
	rep.Live = lm
	rep.Sleep = sleep
	awake := lm &^ sleep
	if awake != 0 {
		// First batch: the smallest awake pid whose step progresses
		// under spin collapse, else every awake pid (the node sits on a
		// potential cycle and must be expanded in full — see the cycle
		// proviso at replayCore.progresses). Which single step starts is
		// otherwise arbitrary: races schedule whatever else turns out to
		// matter.
		init := -1
		for _, po := range pend {
			if awake&(1<<uint(po.PID)) == 0 {
				continue
			}
			if !core.progresses(po.PID, core.pendingEntry(po)) {
				continue
			}
			init = po.PID
			break
		}
		if init >= 0 {
			rep.First = 1 << uint(init)
		} else {
			rep.First = awake
		}
	}
	// Whether this node expands or is pruned as a revisit is unknown
	// until the commit pass; buffer the compensation it would need.
	cfg.compensate(core, sc, m, live, &rep.Comp)
	return nil, nil
}

// advance consumes one wave's stage results serially: mask
// registration, violation selection, then per-task commits in task
// order, installing the next wave. On a violation the wave is NOT
// committed — counters and the chosen (schedule-least) witness are
// identical at every worker count and every distribution.
func (e *dexplorer) advance(stages []dstage) {
	// Register every report's backtrack masks first — the same "all
	// registrations precede all commits" order the stage pass's direct
	// writes used to produce. The mask sets are deduplicated, so this is
	// insensitive to the order within the pass.
	for i := range stages {
		st := &stages[i]
		for _, dm := range st.rep.Masks {
			registerMask(ancestorAt(st.t.node, dm.Depth), dm.Mask)
		}
	}
	for i := range stages {
		st := &stages[i]
		if st.rep.HasViol && (e.viol == nil || dfsLess(st.t.sched, e.viol.Schedule)) {
			e.viol = &Violation{Schedule: append([]int(nil), st.t.sched...), Err: st.verr}
		}
	}
	if e.viol != nil {
		e.wave = e.wave[:0]
		return
	}
	next := e.wave[:0]
	for i := range stages {
		e.commitStage(&stages[i], &next)
	}
	e.wave = next
}

// result summarises the exploration.
func (e *dexplorer) result() Result {
	return Result{
		States:          e.visited.len(),
		Runs:            e.runs,
		Truncated:       e.truncated,
		ReducedNodes:    e.reduced,
		SymmetryApplied: e.sym != nil,
		Violation:       e.viol,
	}
}

// ancestorAt walks n's parent chain up to the node at the given depth —
// the node a (depth, mask) pair registers at.
func ancestorAt(n *dnode, depth int) *dnode {
	for int(n.depth) > depth {
		n = n.parent
	}
	return n
}

// commitStage is the serial commit for one task, in wave order:
// visited-set arbitration, counters, child dispatch and join
// advancement — every branch on shared exploration state, made in a
// deterministic sequence.
func (e *dexplorer) commitStage(st *dstage, next *[]dtask) {
	node := st.t.node
	if st.rep.Run {
		e.runs++
	}
	if st.rep.Trunc {
		e.truncated = true
	}
	if st.rep.Leaf {
		e.childDone(node.parent, next)
		return
	}
	// Seen, then budget, as in the serial DFS: a revisit is pruned (and
	// compensated) even when the budget is exhausted. Below the budget
	// the insert is the seen check.
	full := e.visited.len() >= e.maxStates
	if full && !e.visited.has(st.rep.Key) {
		e.truncated = true
		e.childDone(node.parent, next)
		return
	}
	if full || !e.visited.insert(st.rep.Key) {
		for _, dm := range st.rep.Comp {
			registerMask(ancestorAt(node, dm.Depth), dm.Mask)
		}
		e.childDone(node.parent, next)
		return
	}
	node.pend = append(node.pend[:0], st.rep.Pend...)
	node.live = st.rep.Live
	node.accum = st.rep.Sleep
	children := e.dispatchSteps(node, st.rep.First)
	if len(children) == 0 {
		// No awake step: straight to the join (crash wave, then
		// completion).
		e.settle(node, next)
		return
	}
	for _, ch := range children {
		*next = append(*next, dtask{node: ch, sched: childSchedule(st.t.sched, ch.entry)})
	}
}

// dispatchSteps creates step children for the pids in mask (ascending),
// each with its filterSleep-derived sleep set, updating the node's
// accum/done/out. Commit pass only.
func (e *dexplorer) dispatchSteps(n *dnode, mask uint64) []*dnode {
	if mask == 0 {
		return nil
	}
	children := make([]*dnode, 0, bits.OnesCount64(mask))
	for _, po := range n.pend {
		bit := uint64(1) << uint(po.PID)
		if mask&bit == 0 {
			continue
		}
		children = append(children, &dnode{
			parent: n,
			entry:  po.PID,
			depth:  n.depth + 1,
			sleep:  filterSleep(n.pend, n.accum, po),
		})
		n.accum |= bit
		n.done |= bit
	}
	n.out += int32(len(children))
	return children
}

// childDone records the completion of one child of n (nil for the
// root's pseudo-parent) and, when it was the last outstanding one, runs
// n's join. Commit pass only.
func (e *dexplorer) childDone(n *dnode, next *[]dtask) {
	if n == nil {
		return
	}
	n.out--
	if n.out == 0 {
		e.settle(n, next)
	}
}

// settle is the join loop: with no outstanding children, a node drains
// its registered race masks as the next batch, then runs the crash
// wave, then completes and advances its parent's join — iteratively up
// the tree. Commit pass only; dispatched children go to the next wave.
func (e *dexplorer) settle(n *dnode, next *[]dtask) {
	for {
		if n.out > 0 {
			return
		}
		// Drain the round's race-initials masks in sorted order (the set
		// is deterministic, its arrival order is not), picking the
		// smallest enabled initial of each mask not already covered by a
		// dispatched, sleeping or just-chosen pid.
		var fresh uint64
		if len(n.masks) > 0 {
			slices.Sort(n.masks)
			for _, mask := range n.masks {
				if mask&(n.accum|fresh) != 0 {
					continue
				}
				if add := mask & n.live; add != 0 {
					fresh |= 1 << uint(bits.TrailingZeros64(add))
				} else {
					// Defensive fallback (should be unreachable): schedule
					// the full expansion rather than risk missing the class.
					fresh |= n.live &^ n.accum
				}
			}
			n.masks = n.masks[:0]
		}
		if fresh != 0 {
			sched := nodeSchedule(n)
			children := e.dispatchSteps(n, fresh)
			for _, ch := range children {
				*next = append(*next, dtask{node: ch, sched: childSchedule(sched, ch.entry)})
			}
			return
		}
		if e.crashes && !n.crashed && n.live != 0 {
			n.crashed = true
			sched := nodeSchedule(n)
			for mask := n.live; mask != 0; mask &= mask - 1 {
				pid := bits.TrailingZeros64(mask)
				// A crash commutes with every other process's step: all
				// steps explored (or asleep) at this node stay asleep in
				// the crash subtree; the crashed pid's own step is gone.
				ch := &dnode{
					parent: n,
					entry:  -pid - 1,
					depth:  n.depth + 1,
					sleep:  n.accum &^ (1 << uint(pid)),
				}
				n.out++
				*next = append(*next, dtask{node: ch, sched: childSchedule(sched, ch.entry)})
			}
			return
		}
		if bits.OnesCount64(n.done) < bits.OnesCount64(n.live) {
			e.reduced++
		}
		p := n.parent
		if p == nil {
			return
		}
		p.out--
		if p.out > 0 {
			return
		}
		n = p
	}
}

// childSchedule returns a fresh copy of schedule extended by entry.
func childSchedule(schedule []int, entry int) []int {
	c := make([]int, len(schedule)+1)
	copy(c, schedule)
	c[len(schedule)] = entry
	return c
}

// dfsLess orders schedules by serial depth-first visit order: prefixes
// first, then by the first differing entry with steps (ascending pid)
// before crashes (ascending pid). The commit pass reports the least
// violating schedule of a wave under this order.
func dfsLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return entryKey(a[i]) < entryKey(b[i])
		}
	}
	return len(a) < len(b)
}

// entryKey maps a schedule entry to its branch rank at a node.
func entryKey(e int) int {
	if e >= 0 {
		return e
	}
	return 1<<30 + (-e - 1)
}

// nodeSchedule reconstructs the schedule reaching n by walking the
// parent chain.
func nodeSchedule(n *dnode) []int {
	out := make([]int, n.depth)
	for i := int(n.depth) - 1; i >= 0; i-- {
		out[i] = n.entry
		n = n.parent
	}
	return out
}

// syncPath brings the worker's path scratch to the task: the decision
// entries mapped from the trace's events, indexed, and the vector clocks
// of every entry except the last. It keeps the entries, index and clocks
// of the longest common prefix with the previously synced schedule and
// decodes only the events after it — the same events, since the program
// is deterministic — starting at Session.EventsBefore. The last entry's
// clock is computed by analyze, which also detects its races.
func (cfg *dconfig) syncPath(sc *dscratch, core *replayCore, tr *sim.Trace, sched []int) error {
	m := len(sched)
	common := 0
	for common < len(sc.sched) && common < m && sc.sched[common] == sched[common] {
		common++
	}
	sc.truncate(common)

	// Decision entries from the events. Every event consumes one
	// scheduling decision except the termination mark (KindMark,
	// PhaseDone), which the run loop records by itself immediately after
	// the final step of the returning body. It is skipped without making
	// that step property-visible: no checker property observes
	// cross-process termination order (mutual exclusion reads the
	// Try/CS/Exit/Remainder marks, outputs are set-valued, and
	// ExpectTermination is a predicate on the terminal state), and the
	// termination mark is never a pending step, so a final access is
	// dependent or independent like any other.
	for e := core.sess.EventsBefore(common); e < len(tr.Events); e++ {
		ev := &tr.Events[e]
		if ev.Kind == sim.KindMark && ev.Phase == sim.PhaseDone {
			continue
		}
		n := len(sc.sched)
		if n >= m {
			return fmt.Errorf("check: internal error: %d decision events for schedule of %d", n+1, m)
		}
		sc.push(sched[n], ev)
	}
	if n := len(sc.sched); n != m {
		return fmt.Errorf("check: internal error: %d decision events for schedule of %d", n, m)
	}
	for j := sc.clkValid; j < m-1; j++ {
		clockOf(sc, j, nil)
	}
	sc.clkValid = max(m-1, 0)
	return nil
}

// clockOf computes the vector clock of entry j from the fully clocked
// prefix: the join of the previous own entry's clock and every earlier
// dependent entry's clock, with its own component bumped to its
// sequence number. When races is non-nil, the entries that race with j
// are appended to it (see joinDeps).
func clockOf(sc *dscratch, j int, races *[]int) {
	cur := &sc.ents[j]
	clear(cur.clk)
	if cur.prev >= 0 {
		copy(cur.clk, sc.ents[cur.prev].clk)
	}
	sc.joinDeps(cur, j, races)
	cur.clk[cur.pid] = cur.seq
}

func joinClk(dst, src []int32) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// analyze clocks the path's last entry, detects its races against the
// prefix and buffers the resulting backtrack additions into sink.
func (cfg *dconfig) analyze(sc *dscratch, m int, sink *[]DepthMask) {
	cur := &sc.ents[m-1]
	if cur.kind == uint8(sim.KindCrash) {
		// Crashes race with nothing; clock for completeness.
		clockOf(sc, m-1, nil)
		sc.clkValid = m
		return
	}
	sc.races = sc.races[:0]
	clockOf(sc, m-1, &sc.races)
	sc.clkValid = m
	for _, j := range sc.races {
		cfg.addBacktrack(sc, j, m-1, cur, sink)
	}
}

// addBacktrack processes one race: entry j of the path versus the later
// step cur (at path position last, or a hypothetical next step when
// last == len(path)). It computes the initials of the reordered suffix
// and buffers the (depth, mask) pair into sink for the commit pass to
// register at node j.
func (cfg *dconfig) addBacktrack(sc *dscratch, j, last int, cur *devent, sink *[]DepthMask) {
	f := &sc.ents[j]
	// Candidate suffix: steps after j that f does not happen before,
	// plus cur. Crash entries are skipped — they commute with everything
	// and crash branches are never pruned, so reordering one before f
	// needs no backtrack.
	sc.cand = sc.cand[:0]
	for k := j + 1; k < last; k++ {
		g := &sc.ents[k]
		if g.kind == uint8(sim.KindCrash) {
			continue
		}
		if g.clk[f.pid] >= f.seq {
			continue // f happens before g: g cannot move before f
		}
		sc.cand = append(sc.cand, k)
	}
	var initials uint64
	for ci, k := range sc.cand {
		g := &sc.ents[k]
		if initials&(1<<uint(g.pid)) != 0 {
			continue // a pid's first candidate step decides; later ones are ordered after it
		}
		blocked := false
		for _, kk := range sc.cand[:ci] {
			h := &sc.ents[kk]
			if g.clk[h.pid] >= h.seq {
				blocked = true // a predecessor inside the suffix: g cannot start it
				break
			}
		}
		if !blocked {
			initials |= 1 << uint(g.pid)
		}
	}
	if initials&(1<<uint(cur.pid)) == 0 {
		blocked := false
		for _, kk := range sc.cand {
			h := &sc.ents[kk]
			if cur.clk[h.pid] >= h.seq {
				blocked = true
				break
			}
		}
		if !blocked {
			initials |= 1 << uint(cur.pid)
		}
	}
	if initials == 0 {
		return
	}
	*sink = append(*sink, DepthMask{Depth: j, Mask: initials})
}

// registerMask records one race-initials set at n for its next join to
// resolve. Duplicates collapse and the skip test reads only accum,
// which is constant between a node's dispatches (and a join cannot run
// while the registering path's child of n is outstanding), so the SET a
// join drains is insensitive to registration order; the CHOICE of pid
// is deferred to the join for the same reason (see the determinism
// notes in the file comment). Commit pass only.
func registerMask(n *dnode, initials uint64) {
	if initials&n.accum == 0 && !slices.Contains(n.masks, initials) {
		n.masks = append(n.masks, initials)
	}
}

// compensate approximates the backtrack additions a pruned revisit's
// subtree would have produced (see the stateful-DPOR caveat in the file
// comment): the hit state's pending steps, plus one hypothetical step
// per recorded access of each live process, are race-checked against
// the current path, the resulting masks buffered into sink (the commit
// pass applies them only if the node really is pruned). Must run after
// the node's stateAt (c.hist, c.vals valid) with the session at the node.
func (cfg *dconfig) compensate(core *replayCore, sc *dscratch, m int, live []int, sink *[]DepthMask) {
	if m == 0 {
		return
	}
	for _, po := range core.pendingOps() {
		g := devent{pid: int32(po.PID), kind: uint8(po.Kind)}
		switch po.Kind {
		case sim.KindAccess:
			g.acc = opset.Acc{Op: po.Op, Cell: po.Cell, Shift: po.Shift, Width: po.Width, Arg: po.Arg}
		case sim.KindMark, sim.KindOutput:
			g.vis = true
		}
		cfg.ghostScan(sc, m, &g, sink)
	}
	for _, q := range live {
		for _, en := range core.hist[q] {
			if en.kind != uint8(sim.KindAccess) {
				continue
			}
			g := devent{
				pid:  int32(q),
				kind: en.kind,
				acc:  opset.Acc{Op: opset.Op(en.op), Cell: en.cell, Shift: en.shift, Width: en.width, Arg: en.aux},
			}
			cfg.ghostScan(sc, m, &g, sink)
		}
	}
}

// ghostScan race-checks a hypothetical next step of pid g.pid at path
// position m (the whole synced path) against the path, buffering
// backtrack additions for its races into sink.
func (cfg *dconfig) ghostScan(sc *dscratch, m int, g *devent, sink *[]DepthMask) {
	g.clk = sc.ghostClk
	clear(g.clk)
	if i := sc.last[g.pid]; i >= 0 {
		copy(g.clk, sc.ents[i].clk)
	}
	g.seq = g.clk[g.pid] + 1
	sc.races = sc.races[:0]
	sc.joinDeps(g, m, &sc.races)
	g.clk[g.pid] = g.seq
	for _, j := range sc.races {
		cfg.addBacktrack(sc, j, m, g, sink)
	}
}

// deventsDependent is the dependence relation over executed (or
// hypothetical) steps; it mirrors pendingIndependent — see the case
// analysis in por.go.
func deventsDependent(a, b *devent) bool {
	if a.pid == b.pid {
		return true
	}
	if a.kind == uint8(sim.KindCrash) || b.kind == uint8(sim.KindCrash) {
		return false
	}
	if a.vis && b.vis {
		return true
	}
	if a.kind == uint8(sim.KindAccess) && b.kind == uint8(sim.KindAccess) {
		return !opset.Independent(a.acc, b.acc)
	}
	return false
}

// fail records the first internal error and cancels the stage pass;
// errors (unlike violations) abort mid-wave, since the exploration's
// result is discarded anyway.
func (e *dexplorer) fail(err error) {
	e.mu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
	e.cancel.Store(true)
}
