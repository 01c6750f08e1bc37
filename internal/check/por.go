package check

import (
	"fmt"

	"cfc/internal/opset"
	"cfc/internal/sim"
)

// This file is the partial-order-reduction layer of the explorer. Node
// expansion in the serial DFS asks an enabledProvider for the branch set
// instead of enumerating every ready process itself:
//
//   - fullProvider reproduces the unreduced exploration exactly (one
//     step branch per live process, then crash branches), and is what
//     Options.POR == false selects;
//
//   - porProvider computes an ample set with sleep sets: when some live
//     process's pending step is property-invisible, independent of every
//     other live process's pending step, and (under spin collapse)
//     strictly progressing, the node branches on that single step — the
//     other processes' steps are postponed, not lost, because the chosen
//     step commutes with all of them. Crash branches are never pruned:
//     they are adversary choices, and a crash commutes with every step
//     of every other process, so appending them to a reduced branch set
//     keeps the crash interleavings covered.
//
// # Independence
//
// Two pending steps of distinct processes are independent when swapping
// their order changes neither the resulting state nor any property's
// verdict on any extension:
//
//   - two shared-memory accesses are independent exactly when the opset
//     oracle proves they commute (different cells, disjoint bit-field
//     footprints of one packed word, or a commuting operation pair on
//     the same view — see opset.Independent);
//   - a Local step touches nothing and no property observes it: it is
//     independent of everything;
//   - Mark and Output steps are property-visible — the safety properties
//     observe their relative order (mutual exclusion compares
//     critical-section intervals, which are delimited by marks) — so two
//     visible steps are never independent, but a visible step is
//     independent of an access or Local step, which no property in this
//     repository observes.
//
// A property that inspects the global order of *accesses* (none of the
// metrics properties does) would break the last rule; Options.POR
// documents the contract.
//
// # Sleep sets
//
// Each node carries a sleep set: the set of processes whose pending step
// was already explored from an equivalent sibling subtree and is
// independent of every step on the path since, so re-exploring it here
// would only re-derive a permutation. Branch i of a node puts branches
// 1..i-1 to sleep in its child (filtered by independence with branch i),
// and the visited set is keyed on (state, sleep) so that expansion
// decisions are a pure function of the node, whatever order the nodes
// are reached in.
//
// # Cycle proviso
//
// An ample set that postpones every other process around a cycle would
// "ignore" them forever (the classical proviso problem). With
// CollapseSpins — the only source of cycles in this state space, since
// without collapse every step strictly grows some observation history
// and states cannot recur — every cycle must contain a step whose
// history entry collapses away (net history growth around a cycle is
// zero, and non-collapsing steps grow it). The provider therefore never
// picks a collapsing step as the singleton ample transition: any state
// on a cycle that could postpone others is expanded in full, which is
// exactly the "every cycle contains a fully expanded state" condition.
//
// # Soundness boundary
//
// The candidate test uses the *pending* steps only: it cannot see that a
// process's later step might conflict with the chosen one, so the
// reduction is a heuristic persistent-set approximation, not a proof-
// carrying one (a proof needs static knowledge of future accesses, which
// opaque process bodies do not provide). Three fences keep it honest:
// a violation reported under POR is always real (POR only omits
// schedules, never invents them, and every witness replays); the
// portfolio differential gate (POR-on vs POR-off, cfccheck -pordiff and
// the CI job) must agree on every verdict including the seeded-broken
// designs; and -por=false restores the exhaustive reference exploration.

// branch is one child decision of an expanded node: a schedule entry in
// the Decisions encoding (pid steps that process, -pid-1 crashes it) plus
// the child's sleep set.
type branch struct {
	entry int
	sleep uint64
}

// enabledProvider computes the branch set of a node. Implementations are
// stateless: scratch lives in the replayCore.
//
// branches must be called with the core's session positioned at the node
// by stateAt, whose folded histories and cell values the porProvider's
// proviso check reads. reduced reports that the step branches are a
// strict subset of the live set.
type enabledProvider interface {
	branches(c *replayCore, live []int, schedule []int, sleep uint64) (br []branch, reduced bool)
}

// fullProvider is the unreduced expansion: every live process's step in
// ascending pid order, then a crash branch per not-yet-crashed live
// process when crash exploration is on. Sleep sets stay empty, so with
// this provider the exploration is bit-identical to the pre-POR checker.
type fullProvider struct {
	crashes bool
}

func (f fullProvider) branches(c *replayCore, live, schedule []int, _ uint64) ([]branch, bool) {
	n := len(live)
	if f.crashes {
		n *= 2
	}
	br := make([]branch, 0, n)
	for _, pid := range live {
		br = append(br, branch{entry: pid})
	}
	if f.crashes {
		for _, pid := range live {
			if !crashedIn(schedule, pid) {
				br = append(br, branch{entry: -pid - 1})
			}
		}
	}
	return br, false
}

// porProvider is the ample-set + sleep-set expansion described in the
// file comment. It requires len(procs) <= 64 (sleep sets are pid
// bitmasks); Explore falls back to fullProvider beyond that.
type porProvider struct {
	crashes bool
}

func (p porProvider) branches(c *replayCore, live, schedule []int, sleep uint64) ([]branch, bool) {
	pend := c.pendingOps()
	if len(pend) != len(live) {
		panic(fmt.Sprintf("check: internal error: %d pending ops for %d live processes", len(pend), len(live)))
	}

	// Ample candidate: the smallest live pid whose pending step is
	// invisible, awake, independent of every other live process's pending
	// step, clear of both footprint guards, and strictly progressing
	// under spin collapse. The guards patch the two holes pending-only
	// independence leaves (a conflict that is not yet pending):
	//
	//   - histConflicts: another live process has already accessed the
	//     candidate's cell with a non-commuting operation. Its past
	//     reveals the cell is in its footprint, and these algorithms
	//     revisit their cells (spin loops, validation reads), so the
	//     not-yet-pending re-access must not be postponed behind the
	//     candidate.
	//
	//   - ownReadOf: the candidate mutates a cell its own process
	//     previously read — it is completing a read-check-write handshake
	//     (splitter doorways, lost-update locks). The handshake's race
	//     window is exactly where interleavings decide verdicts, and in
	//     the symmetric programs under check the other processes run the
	//     same handshake, so the node is expanded in full.
	amp := -1
	for i, po := range pend {
		if po.PID != live[i] {
			panic(fmt.Sprintf("check: internal error: pending op of p%d at live slot for p%d", po.PID, live[i]))
		}
		if po.Kind == sim.KindMark || po.Kind == sim.KindOutput {
			continue // visible: never pruned alone, never a candidate
		}
		if sleep&(1<<uint(po.PID)) != 0 {
			continue
		}
		ok := true
		for j := range pend {
			if j != i && !pendingIndependent(po, pend[j]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if po.Kind == sim.KindAccess && c.histConflicts(po.PID, po.Acc(), live) {
			continue // another live process has this cell in its footprint
		}
		if po.Kind == sim.KindAccess && po.Op.Mutates() && c.ownReadOf(po.PID, po.Acc()) {
			continue // completing a read-check-write handshake on the cell
		}
		if !c.progresses(po.PID, c.pendingEntry(po)) {
			continue // cycle proviso: a collapsing step must not postpone others
		}
		amp = i
		break
	}

	var (
		br      []branch
		reduced bool
		accum   = sleep // pids whose step is explored here or covered by sleep
	)
	if amp >= 0 {
		po := pend[amp]
		br = append(make([]branch, 0, branchCap(1, live, p.crashes)),
			branch{entry: po.PID, sleep: filterSleep(pend, sleep, po)})
		accum |= 1 << uint(po.PID)
		reduced = len(live) > 1
	} else {
		br = make([]branch, 0, branchCap(len(live), live, p.crashes))
		for _, po := range pend {
			if sleep&(1<<uint(po.PID)) != 0 {
				reduced = true // a sleeping step is covered by an explored sibling
				continue
			}
			br = append(br, branch{entry: po.PID, sleep: filterSleep(pend, accum, po)})
			accum |= 1 << uint(po.PID)
		}
	}
	if p.crashes {
		for _, pid := range live {
			if crashedIn(schedule, pid) {
				continue
			}
			// A crash of pid commutes with every other process's step, so
			// every step explored (or asleep) at this node stays asleep in
			// the crash subtree; pid's own step is woken — it is gone.
			br = append(br, branch{entry: -pid - 1, sleep: accum &^ (1 << uint(pid))})
		}
	}
	return br, reduced
}

// branchCap sizes the branch slice: steps plus, with crash exploration,
// up to one crash per live process.
func branchCap(steps int, live []int, crashes bool) int {
	if crashes {
		return steps + len(live)
	}
	return steps
}

// filterSleep keeps the processes of mask whose pending step is
// independent of the executed step po; dependent sleepers wake (their
// postponed step no longer commutes with the path), and po's own process
// leaves the set because its step is the one being taken.
func filterSleep(pend []sim.PendingOp, mask uint64, po sim.PendingOp) uint64 {
	out := mask &^ (1 << uint(po.PID))
	if out == 0 {
		return 0
	}
	for _, q := range pend {
		bit := uint64(1) << uint(q.PID)
		if out&bit != 0 && !pendingIndependent(po, q) {
			out &^= bit
		}
	}
	return out
}

// normalizeSleep computes the node's effective sleep set, the one both
// the visited key and the expansion use. Starting from the inherited
// mask (already restricted to live pids by the caller), it wakes every
// sleeping process whose sleep bit no longer buys a worthwhile pruning:
//
//   - visible pending steps (marks, outputs): dependent with every
//     other visible step, so their postponement rarely survives the
//     next edge anyway;
//   - steps dependent with another live process's pending step: the
//     conflict means the orderings are not equivalent and the sleeper
//     would be woken imminently;
//   - under spin collapse, steps that do not progress: the step folds
//     back into the same collapsed state, so skipping it saves almost
//     nothing.
//
// Waking a sleeper is always sound — it only re-explores a permutation
// an explored sibling already covers. The payoff is a canonical key:
// on conflict-heavy states (single-cell spin locks) the sleep component
// collapses toward zero, so one state no longer re-enters the visited
// set under many different sleep masks, which is what used to inflate
// tas/ttas explorations past the unreduced reference and made PR 6's
// PORAuto give up on them. On independence-heavy states nothing wakes
// and the full reduction is kept. The result is a pure function of the
// state and the incoming sleep set, so keying and expanding on it
// preserves the serial/parallel bit-identical guarantee.
//
// Must be called with the session at the node, after stateAt for this
// node (the progresses check reads its folded histories and values).
func normalizeSleep(c *replayCore, pend []sim.PendingOp, sleep uint64) uint64 {
	out := sleep
	for i := range pend {
		bit := uint64(1) << uint(pend[i].PID)
		if out&bit == 0 {
			continue
		}
		if pend[i].Kind == sim.KindMark || pend[i].Kind == sim.KindOutput {
			out &^= bit
			continue
		}
		if !c.progresses(pend[i].PID, c.pendingEntry(pend[i])) {
			out &^= bit
			continue
		}
		for j := range pend {
			if j != i && !pendingIndependent(pend[i], pend[j]) {
				out &^= bit
				break
			}
		}
	}
	return out
}

// pidMask returns the bitmask of the live pids.
func pidMask(live []int) uint64 {
	var m uint64
	for _, p := range live {
		m |= 1 << uint(p)
	}
	return m
}

// pendingIndependent is the independence relation over pending steps of
// distinct processes; see the file comment for the case analysis.
func pendingIndependent(a, b sim.PendingOp) bool {
	if a.PID == b.PID {
		return false // program order: steps of one process never commute
	}
	aAcc, bAcc := a.Kind == sim.KindAccess, b.Kind == sim.KindAccess
	switch {
	case a.Kind == sim.KindLocal || b.Kind == sim.KindLocal:
		return true
	case aAcc && bAcc:
		return opset.Independent(a.Acc(), b.Acc())
	case aAcc || bAcc:
		return true // visible (mark/output) vs invisible access
	default:
		return false // two visible steps: the properties observe their order
	}
}

// newProvider selects the expansion strategy for an exploration over n
// processes. POR needs pid bitmasks, so programs wider than 64 processes
// fall back to the unreduced provider (the checker targets small
// configurations; this is a guard, not a practical limit).
func newProvider(opts Options, n int) (enabledProvider, bool) {
	if opts.POR && n <= 64 {
		return porProvider{crashes: opts.ExploreCrashes}, true
	}
	return fullProvider{crashes: opts.ExploreCrashes}, false
}
