package check

import (
	"errors"
	"fmt"

	"cfc/internal/sim"
)

// replayCore is the per-explorer (and, in parallel mode, per-worker)
// replay state: one program instance (memory plus bodies, from a private
// call of the Builder), one arena-backed live session, and the folded
// state identity of the session's position. A core is confined to a
// single goroutine; parallelism comes from running many cores, never
// from sharing one.
type replayCore struct {
	mem      *sim.Memory
	procs    []sim.ProcFunc
	maxDepth int
	collapse bool // spin-canonical histories (Options.CollapseSpins)

	// One simulator session and trace/event buffer (via the arena)
	// recycled across every replay instead of being reallocated per node.
	// The live session doubles as a cursor: Session.Seek extends it in
	// place whenever the target schedule has the session's decision stack
	// as a prefix — in depth-first order that is every first branch — and
	// on divergence re-runs only the processes that acted after the
	// common prefix.
	arena *sim.Arena
	sess  *sim.Session
	pend  []sim.PendingOp

	// The fold: stateAt folds each trace event once into per-process
	// canonical histories, each entry paired with its chain digest
	// (chain[pid][i] = chainEntry(chain[pid][i-1], hist[pid][i])), plus
	// the written-bit masks (wmask has, per cell, the bits any process
	// wrote) and the done/crashed statuses. Every folded event pushes one
	// undo record, so a Seek that keeps only a prefix of the trace pops
	// the fold back to that prefix instead of rebuilding it. vals aliases
	// the live memory's cell values. All of it describes the session's
	// current position and is valid until the next stateAt.
	hist   [][]histEntry
	chain  [][]uint64
	wmask  []uint64
	status []uint8
	undo   []foldUndo
	vals   []uint64

	// Symmetry-reduction state (see symmetry.go): permuted cell values,
	// the per-view permutation-behaviour cache, and the permuted chain
	// cache, whose cached prefixes the fold cuts back wherever it
	// truncates a history.
	symVals  []uint64
	symDescs map[uint32]sim.ViewDesc
	sym      symCache
}

// init builds the core's private program instance. collapse selects
// spin-canonical histories (Options.CollapseSpins) for every state the
// core folds.
func (c *replayCore) init(build Builder, maxDepth int, collapse bool) error {
	mem, procs, err := build()
	if err != nil {
		return fmt.Errorf("check: builder: %w", err)
	}
	c.mem = mem
	c.procs = procs
	c.maxDepth = maxDepth
	c.collapse = collapse
	c.arena = sim.NewArena()
	c.hist = make([][]histEntry, len(procs))
	c.chain = make([][]uint64, len(procs))
	c.status = make([]uint8, len(procs))
	c.wmask = make([]uint64, mem.NumCells())
	return nil
}

func (c *replayCore) close() {
	if c.sess != nil {
		c.sess.Close()
		c.sess = nil
	}
}

// statuses folded from a trace.
const (
	statusDone uint8 = 1 << iota
	statusCrashed
)

// executed is the live session's executed-decision count
// (sim.Session.Executed), zero before the first replay; wave probers
// charge each task the difference across its stage pass.
func (c *replayCore) executed() int {
	if c.sess == nil {
		return 0
	}
	return c.sess.Executed()
}

// stateAt positions the live session at the given schedule — extending it
// in place when the current decision stack is a prefix, rewinding the
// processes that moved otherwise — brings the fold up to date, and
// returns the trace plus the set of processes that are still live (can be
// scheduled). The trace aliases the session: it is valid only until the
// session advances or is replaced.
func (c *replayCore) stateAt(schedule []int) (*sim.Trace, []int, error) {
	if c.sess == nil {
		sess, err := sim.StartSession(sim.Config{
			Mem:      c.mem,
			Procs:    c.procs,
			MaxSteps: c.maxDepth + 1,
			Reuse:    c.arena,
		})
		if err != nil {
			return nil, nil, err
		}
		c.sess = sess
		c.unfold(0)
	}
	// Pop the fold back to the events the Seek keeps: those before the
	// first decision where the stack and schedule differ. An errored
	// session keeps nothing — Seek restarts it from the root.
	keep := 0
	if c.sess.Err() == nil {
		stack := c.sess.Decisions()
		k := 0
		for k < len(stack) && k < len(schedule) && stack[k] == schedule[k] {
			k++
		}
		keep = c.sess.EventsBefore(k)
	}
	c.unfold(keep)
	if err := c.sess.Seek(schedule); err != nil {
		if errors.Is(err, sim.ErrNotReady) {
			// The explorer only schedules observed-live processes, so a
			// non-ready entry means the program is nondeterministic.
			return nil, nil, fmt.Errorf("check: internal error: schedule %v became invalid: %w",
				schedule, err)
		}
		return nil, nil, fmt.Errorf("check: replay error: %w", err)
	}
	tr := c.sess.Trace()
	for i := len(c.undo); i < len(tr.Events); i++ {
		c.fold(&tr.Events[i])
	}
	c.vals = c.sess.Values()

	// Live processes: have a body, not done, not crashed. live is
	// allocated per node: it must survive recursion below the node
	// (serial) or child generation (parallel), unlike the trace and the
	// fold.
	live := make([]int, 0, len(c.procs))
	for pid := 0; pid < len(c.procs); pid++ {
		if c.procs[pid] != nil && c.status[pid] == 0 {
			live = append(live, pid)
		}
	}
	return tr, live, nil
}

// histEntry is one event of a process's observation history, in the form
// that determines its future behaviour (processes are deterministic
// functions of the values their operations return). Shift and width
// matter: packed-word algorithms access different field views of the
// same cell, and two accesses that agree on (op, cell, arg, ret) but
// touch different fields are different observations — dropping the view
// from the digest made the spin collapse merge genuinely different
// lamport-packed states, a latent unsoundness the parallel/serial
// differential gate caught as an order-dependent state count.
type histEntry struct {
	kind  uint8
	op    uint8
	shift uint8
	width uint8
	cell  int32
	ret   uint64
	aux   uint64 // written arg / phase / output value
}

// entryOf is the history entry a trace event contributes.
func entryOf(ev *sim.Event) histEntry {
	v := histEntry{kind: uint8(ev.Kind)}
	switch ev.Kind {
	case sim.KindAccess:
		v.op = uint8(ev.Op)
		v.shift = ev.Shift
		v.width = ev.Width
		v.cell = ev.Cell
		v.ret = ev.Ret
		v.aux = ev.Arg
	case sim.KindMark:
		v.aux = uint64(ev.Phase)
	case sim.KindOutput:
		v.aux = ev.Out
	}
	return v
}

// foldUndo is what folding one event changed, enough to pop it: the
// event's process, that process's history length and status before the
// event, and the written-bit mask of the cell it mutated (cell -1: none).
type foldUndo struct {
	pid    int32
	plen   int32
	cell   int32
	status uint8
	wmask  uint64
}

// fold folds one trace event into the state identity and pushes its undo
// record.
func (c *replayCore) fold(ev *sim.Event) {
	pid := ev.PID
	c.undo = append(c.undo, foldUndo{pid: int32(pid), plen: int32(len(c.hist[pid])), cell: -1, status: c.status[pid]})
	switch {
	case ev.Kind == sim.KindCrash:
		c.status[pid] |= statusCrashed
	case ev.Kind == sim.KindMark && ev.Phase == sim.PhaseDone:
		// The termination mark is run-loop-generated (no body marks
		// PhaseDone itself — see Trace.Schedule), recorded in the same
		// scheduled step as the body's final action. Whether a body has
		// returned is therefore a deterministic function of the rest of
		// its history, so leaving the mark out of the history merges no
		// distinct states — and it lets the serial explorer's sibling
		// peek (explorer.peekKey) predict a child's key without knowing
		// whether the scheduled step completes the body.
		c.status[pid] |= statusDone
		return
	case ev.Kind == sim.KindAccess && ev.Op.Mutates():
		u := &c.undo[len(c.undo)-1]
		u.cell, u.wmask = ev.Cell, c.wmask[ev.Cell]
		c.wmask[ev.Cell] |= viewMask(ev.Shift, ev.Width)
	}
	e := entryOf(ev)
	h := c.hist[pid]
	if n := c.appendLen(pid, e); n <= len(h) {
		// Another iteration of a busy-wait period: the canonical history
		// falls back to its prefix of length n, whose chain digests are
		// already there.
		c.sym.cut(h, pid, n)
		c.hist[pid], c.chain[pid] = h[:n], c.chain[pid][:n]
		return
	}
	c.chain[pid] = append(c.chain[pid], chainEntry(c.histDigest(pid), e.shape(), e.ret, e.aux))
	c.hist[pid] = append(h, e)
}

// unfold pops folded events until only the first keep remain.
func (c *replayCore) unfold(keep int) {
	for len(c.undo) > keep {
		u := c.undo[len(c.undo)-1]
		c.undo = c.undo[:len(c.undo)-1]
		pid, plen := int(u.pid), int(u.plen)
		c.status[pid] = u.status
		if u.cell >= 0 {
			c.wmask[u.cell] = u.wmask
		}
		n := len(c.hist[pid])
		c.sym.cut(c.hist[pid], pid, min(n, plen))
		h, ch := c.hist[pid][:plen], c.chain[pid][:plen]
		c.hist[pid], c.chain[pid] = h, ch
		if n > plen {
			continue // the event appended one entry
		}
		// The event completed a spin period p, dropping the period's last
		// p-1 entries. They repeat the p entries before them, and the
		// backing arrays still have room for them (they held plen
		// entries once, and appends only ever grow them), so restoring
		// is a copy plus one chain step each.
		p := plen + 1 - n
		for i := n; i < plen; i++ {
			h[i] = h[i-p]
			ch[i] = chainEntry(ch[i-1], h[i].shape(), h[i].ret, h[i].aux)
		}
	}
}

// hashSeed is an arbitrary odd constant seeding the state digest.
const hashSeed = 14695981039346656037

// viewMask is the cell-coordinate bit mask of a register view.
func viewMask(shift, width uint8) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << width) - 1) << shift
}

// mix64 folds v into a running hash with one multiply-xorshift round
// (splitmix64-style). The digest only feeds the explorer's own visited
// set, so word-at-a-time mixing replaces the byte-at-a-time fnv loop that
// dominated hashing time.
func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// shape packs an entry's kind, operation, view and cell into the one
// word the chain digest mixes for them.
func (en histEntry) shape() uint64 {
	return uint64(en.kind) | uint64(en.op)<<8 | uint64(en.shift)<<16 | uint64(en.width)<<24 | uint64(uint32(en.cell))<<32
}

// chainEntry extends a history's chain digest d by one entry, given as
// its words: chainEntry(d, en.shape(), en.ret, en.aux). The words are
// passed apart so that the step is small enough to inline into
// symExtend's per-permutation loop. The empty history's chain digest is
// 0, so a history's digest is a pure function of its entries, whichever
// process holds it — which is what lets canonicalKey mix a remapped
// history's chain into another process's slot.
func chainEntry(d, shape, ret, aux uint64) uint64 {
	return mix64(mix64(mix64(d, shape), ret), aux)
}

// histDigest is the chain digest of pid's folded history.
func (c *replayCore) histDigest(pid int) uint64 {
	if ch := c.chain[pid]; len(ch) > 0 {
		return ch[len(ch)-1]
	}
	return 0
}

// mixHist is the state digest's per-process step: the history's length
// (collapse-aware) and chain digest, mixed in pid order after the cell
// values. stateHash, peekKey and canonicalKey all combine through it.
func mixHist(h uint64, n int, d uint64) uint64 {
	return mix64(mix64(h, uint64(n)<<32|0xabcd), d)
}

// stateHash digests the state the last stateAt reached: the cell values,
// then each process's (history length, chain digest). Two prefixes with
// equal hashes lead to identical futures. With collapse, trailing
// busy-wait periods in each history are reduced to one occurrence (see
// Options.CollapseSpins). It costs O(cells + processes): the histories
// were folded event by event as the session moved.
func (c *replayCore) stateHash() uint64 {
	return c.successorHash(-1, 0, -1, 0, 0)
}

// successorHash is stateHash of a state that differs from the folded one
// at most in one cell's value (cell < 0: none) and one process's history,
// which has length n and chain digest d (pid < 0: none) — the shape of
// every one-step successor, which is how the sibling peek keys a child
// without replaying it.
func (c *replayCore) successorHash(cell int32, val uint64, pid, n int, d uint64) uint64 {
	h := uint64(hashSeed)
	for i, v := range c.vals {
		if int32(i) == cell {
			v = val
		}
		h = mix64(h, v)
	}
	for q := range c.hist {
		if q == pid {
			h = mixHist(h, n, d)
		} else {
			h = mixHist(h, len(c.hist[q]), c.histDigest(q))
		}
	}
	return h
}

// maxSpinPeriod bounds the busy-wait loop body size the spin collapse
// recognises (in events per iteration).
const maxSpinPeriod = 4

// appendLen is the length of pid's canonical history after appending e:
// len+1, unless collapse is on and e completes a repetition of a trailing
// period of up to maxSpinPeriod identical entries, in which case the
// repetition is dropped (the shortest such period first) and the result
// is a prefix of the current history.
//
// Applied after every event this is the online spin collapse, with the
// property the explorers depend on: collapse(H+e) == collapse(collapse(H)+e).
// The canonical form of a state therefore determines the canonical forms
// of all its successors, which makes the visited closure — and with it
// States and Runs — a pure function of the program, independent of the
// order states are discovered in. A tail-only collapse lacks this: two
// merged arrivals with different spin counts diverge again one event
// later (the spins are no longer the tail), and which arrival's subtree
// gets expanded then depends on discovery order — unobservable in one
// deterministic depth-first search, but a changed result for any search
// that visits states in another order. One drop per event suffices:
// every prefix of a canonical history was itself canonical when it was
// the whole history, so it ends in no repetition.
func (c *replayCore) appendLen(pid int, e histEntry) int {
	h := c.hist[pid]
	if c.collapse {
		for p := 1; p <= maxSpinPeriod && 2*p <= len(h)+1; p++ {
			if tailRepeatsWith(h, e, p) {
				return len(h) + 1 - p
			}
		}
	}
	return len(h) + 1
}

// tailRepeatsWith reports whether the last p entries of h followed by e
// equal the p entries before them. It needs 2p <= len(h)+1.
func tailRepeatsWith(h []histEntry, e histEntry, p int) bool {
	n := len(h)
	if h[n-p] != e {
		return false
	}
	for i := 1; i < p; i++ {
		if h[n-i] != h[n-p-i] {
			return false
		}
	}
	return true
}

// pendingOps snapshots the live processes' pending steps from the core's
// session (which must be positioned at the current node), reusing the
// core's scratch. In a healthy session the ready set and the explorer's
// live set coincide, so entry i belongs to live[i]; explorer.peekKey
// checks the alignment before it relies on it.
func (c *replayCore) pendingOps() []sim.PendingOp {
	c.pend = c.sess.PendingOps(c.pend)
	return c.pend
}

// pendingEntry materialises the histEntry that performing po would append
// to its process's observation history. For an access the return value is
// computed from the current cell values — c.vals, set by the stateAt call
// for this node — exactly as the run loop's perform would.
func (c *replayCore) pendingEntry(po sim.PendingOp) histEntry {
	v := histEntry{kind: uint8(po.Kind)}
	switch po.Kind {
	case sim.KindAccess:
		mask := po.Acc().Mask()
		old := (c.vals[po.Cell] & mask) >> po.Shift
		_, ret, _ := po.Op.Apply(old, po.Arg)
		v.op = uint8(po.Op)
		v.shift = po.Shift
		v.width = po.Width
		v.cell = po.Cell
		v.ret = ret
		v.aux = po.Arg
	case sim.KindMark:
		v.aux = uint64(po.Phase)
	case sim.KindOutput:
		v.aux = po.Out
	}
	return v
}

// progresses reports whether appending e to pid's canonical history
// strictly grows it — i.e. the step is not another iteration of a
// busy-wait period the spin collapse removes; without collapse every step
// progresses. It reads the histories the stateAt call for the current
// node folded.
//
// Steps that do not progress are exactly the edges cycles in the
// collapsed state space are made of: without collapse every step grows
// some history, so no state recurs, and around a cycle the net history
// growth is zero, so every cycle contains a collapsing step. That is the
// cycle proviso of DPOR's first batch (dpor.go): a node starts with one
// progressing step, or with every awake step when none progresses, so a
// collapsing step never postpones the other processes around a cycle.
func (c *replayCore) progresses(pid int, e histEntry) bool {
	return c.appendLen(pid, e) > len(c.hist[pid])
}

func crashedIn(schedule []int, pid int) bool {
	for _, s := range schedule {
		if s == -pid-1 {
			return true
		}
	}
	return false
}
