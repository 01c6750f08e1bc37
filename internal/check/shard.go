package check

import (
	"errors"
	"fmt"
	"slices"

	"cfc/internal/sim"
)

// This file is the checker's half of the distributed check fabric
// (internal/fabric): the primitives that let ONE exploration be split
// into frontier subtrees executed by separate processes, with results
// bit-identical to the single-process explorers.
//
// The split mirrors the in-process work-stealer's unit of work. A
// frontier node is a serialised decision-stack prefix plus its sleep
// mask — exactly a porTask, made wire-shaped. A Prober is the worker
// side: it owns a private program instance and live session (one
// replayCore) and turns a node into everything the exploration needs to
// know about it — property verdict, leaf-ness, visited key, branch set —
// by replaying the schedule with Session.Seek (consecutive probes share
// their longest common prefix, the same fast path the serial DFS rides).
// A ShardMaster is the coordinator side: it owns THE visited set, so
// each reachable state's subtree is dispatched exactly once no matter
// how many probers feed it or in what order their reports arrive.
//
// The division of labour reproduces the serial DFS exactly. dfs() does,
// per node: replay, property check, leaf/depth handling, state hash
// (+ sleep normalisation under POR), visited arbitration, branch
// computation. Probe performs every step of that EXCEPT the visited
// arbitration — the only step that reads shared state — and the master
// performs exactly that step. Because the hash is future-deterministic
// (cell values + observation histories + normalised sleep), a node's
// probe report is a pure function of the node, so the master's visited
// closure — and with it States, Runs, Truncated and ReducedNodes — is
// independent of which prober probed what and when, by the same argument
// that makes the in-process parallel explorer order-independent. As
// there, the guarantee is exact for explorations that complete within
// their budgets; a truncated exploration depends on visit order in any
// mode. Violations are canonicalised the way exploreParallel does it: a
// serial rerun at the coordinator reproduces the depth-first-minimal
// witness (see CanonicalResult).
//
// # Locality
//
// Everything above is order-independent, which frees the master to pick
// dispatch orders purely for speed. The frontier is kept as one deque
// per OWNER (a small integer the coordinator assigns per worker): a
// node's children land on the deque of the owner that probed it, so each
// worker keeps descending its own subtree, and Next pops a worker's own
// deque from the tail — deepest first, then sorts the batch into DFS
// order — so consecutive probes extend the prober's live session by one
// decision or rewind it only a little. An idle owner steals
// from the head of the fullest other deque (shallowest nodes: whole
// subtrees change owner, and their descendants follow via the routing
// rule), so a slow worker delays nothing and a dead worker's deque
// drains. Owner 0 is the unowned pool: the root starts there, and
// Requeue returns a lost worker's nodes there. All of it is advisory —
// the scrambled-order tests deliberately destroy the locality and must
// get byte-identical results.
//
// Deque order alone cannot deliver the replay win, though, because a
// frontier is an antichain: no pending node extends another, so every
// probe in a batch diverges from the session the previous one left, and
// Session.Seek rewinds to their common prefix — re-running the
// processes that moved since, which is cheaper than a root replay but
// not free — no matter how the batch is sorted. The larger win comes
// from DESCENT: having probed an expandable node, the prober
// immediately probes its first branch — a one-decision extension of the
// live session, costing one decision instead of a rewind — and keeps
// descending first branches until it hits a leaf, a
// violation, the depth bound or its dedup cache. Probe therefore
// returns a CHAIN of reports, one per descended node. The master
// consumes the chain in order, arbitrating each link against the
// visited set exactly as if it had dispatched the node itself: it
// reconstructs every link's schedule from its own copy of the parent
// and the reported first branch (a report can never inject a node the
// master didn't derive), enqueues the non-first branches to the owner's
// deque, and stops consuming at the first link that loses arbitration —
// the remainder of the chain describes a subtree the exploration
// prunes. Under POR most nodes have singleton ample sets, so one
// dispatched node rides the live session down an entire chain: the
// serial DFS's own replay profile, recovered over the wire.
//
// The Prober doubles down on the same bet with an advisory dedup cache:
// it remembers the visited keys it has already reported this job and
// answers a repeat with a Dup report (no branch set) instead of
// re-expanding, which also ends a descent. The master's visited set
// stays authoritative — a Dup whose key the master has NOT seen
// (possible when reports cross between connections, or after a worker
// loss) is re-dispatched with Node.Full set, which makes the prober
// bypass its cache, so no subtree can be lost to a stale cache in any
// delivery order. Each such re-dispatch arbitrates at least one new
// state, so the loop terminates.
//
// The DPOR engine has its own split along the same lines — a wave's
// parallel pure pass fans out to WaveProbers while the serial commit
// stays at the WaveMaster; see wave.go.

// Node is one frontier subtree root: the decision schedule reaching it
// (Session.Decisions encoding — entry pid steps that process, entry
// -pid-1 crashes it) plus the sleep mask it inherited. Nodes travel
// between processes; all fields are plain wire data.
type Node struct {
	Schedule []int
	Sleep    uint64
	// Full forces a full probe report even when the prober's advisory
	// dedup cache holds the node's key — the master's re-dispatch path
	// for a Dup report it cannot arbitrate.
	Full bool
}

// Branch is one child decision of an expanded node, in wire shape.
type Branch struct {
	Entry int
	Sleep uint64
}

// ProbeReport is everything an exploration needs to know about one
// frontier node, computed by a Prober without consulting any shared
// state. Exactly one of the verdict-ish fields applies, in the serial
// DFS's own order: a Violation preempts everything (for a Leaf violation
// — a termination failure on a maximal run — Leaf is also set, matching
// the serial explorer's run accounting); then Leaf; then DepthTruncated;
// then Dup; otherwise Hash/Reduced/Branches describe the expandable node.
type ProbeReport struct {
	// Hash is the node's visited key: the state digest, with the
	// normalised sleep mask mixed in under POR. Zero-valued (and
	// meaningless) for leaf, violating and depth-truncated nodes.
	Hash uint64
	// Leaf reports a maximal run (no live process): one completed run.
	Leaf bool
	// DepthTruncated reports the schedule hit the depth bound.
	DepthTruncated bool
	// Dup reports the prober already sent a full report for Hash this
	// job and elided the branch set. Advisory: if the master's visited
	// set disagrees, it re-dispatches the node with Full set.
	Dup bool
	// Reduced reports the branch set is a strict subset of the enabled
	// steps (counts toward Result.ReducedNodes if the node is expanded).
	Reduced bool
	// Violation is the property failure (or termination failure) at this
	// node, if any. It is not wire data: the fabric ships the violation
	// flattened beside the report.
	Violation *Violation
	// Branches is the node's child decisions, in serial depth-first
	// order, with their sleep masks.
	Branches []Branch
}

// ProbeStats counts a prober's replay work in schedule decisions. A
// prober that replayed every probe from the root would have executed
// Replayed+Saved decisions, the probed schedules' total length; the
// ratio of that sum to Replayed is the prefix-locality win.
type ProbeStats struct {
	// Probes is the number of nodes probed.
	Probes int64
	// Replayed is the number of decisions actually executed to position
	// the live session (sim.Session.Executed): decisions performed, plus
	// decisions a rewind re-fed to the processes that moved.
	Replayed int64
	// Saved is the rest of the probed schedules: decisions the live
	// session already held, in the prefix it extended or in the
	// processes a rewind left parked.
	Saved int64
	// Deduped is the number of reports elided by the advisory dedup
	// cache (ProbeReport.Dup).
	Deduped int64
}

// account charges one probe of an n-decision schedule that cost the
// session executed decisions.
func (s *ProbeStats) account(executed, n int) {
	s.Replayed += int64(executed)
	s.Saved += int64(n - executed)
}

// Prober executes frontier-node probes for one program: the worker side
// of a sharded exploration. It is single-goroutine (one replayCore);
// run several Probers for parallelism. The zero value is not usable —
// construct with NewProber.
type Prober struct {
	core     replayCore
	prop     Property
	opts     Options
	maxDepth int
	provider enabledProvider
	por      bool
	seen     map[uint64]struct{}
	stats    ProbeStats
}

// NewProber builds a prober's private program instance. The options
// select the expansion engine exactly as Explore does, except that DPOR
// is rejected: the wave-synchronised DPOR engine expands whole tree
// levels, not single frontier nodes — use a WaveProber (wave.go).
func NewProber(build Builder, prop Property, opts Options) (*Prober, error) {
	if opts.DPOR {
		return nil, errors.New("check: frontier probing does not support the DPOR engine; use a WaveProber for wave distribution")
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 200
	}
	p := &Prober{prop: prop, opts: opts, maxDepth: maxDepth, seen: make(map[uint64]struct{})}
	if err := p.core.init(build, maxDepth, opts.CollapseSpins); err != nil {
		return nil, err
	}
	p.provider, p.por = newProvider(opts, len(p.core.procs))
	return p, nil
}

// Close releases the prober's live session.
func (p *Prober) Close() { p.core.close() }

// Stats returns the prober's cumulative replay accounting. Workers ship
// per-batch deltas of these counters back to the coordinator.
func (p *Prober) Stats() ProbeStats { return p.stats }

// Probe replays the node and reports its descent: the node's own report
// followed by one report per first-branch descendant, each probed as a
// one-decision extension of the live session (see the file comment).
// The chain ends at the first terminal link — leaf, violation, depth
// truncation, or a dedup-cache hit. Every link is the serial DFS's
// per-node work minus the visited arbitration, which belongs to the
// ShardMaster. A panic in the algorithm body, property or provider is
// contained as an error carrying the schedule, mirroring both explorers.
func (p *Prober) Probe(nd Node) ([]ProbeReport, error) {
	chain := make([]ProbeReport, 0, 8)
	cur := nd
	for {
		rep, err := p.probeOne(cur)
		if err != nil {
			return nil, err
		}
		chain = append(chain, rep)
		if rep.Violation != nil || rep.Leaf || rep.DepthTruncated || rep.Dup || len(rep.Branches) == 0 {
			return chain, nil
		}
		b := rep.Branches[0]
		sched := make([]int, len(cur.Schedule)+1)
		copy(sched, cur.Schedule)
		sched[len(cur.Schedule)] = b.Entry
		// Full only bypasses the cache for the dispatched node itself;
		// descendants dedup normally.
		cur = Node{Schedule: sched, Sleep: b.Sleep}
	}
}

// probeOne is one link of a descent: verdict, visited key and branch set
// for a single node.
func (p *Prober) probeOne(nd Node) (rep ProbeReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check: panicked probing schedule prefix %v: %v", nd.Schedule, r)
		}
	}()
	p.stats.Probes++
	before := p.core.executed()
	tr, live, err := p.core.stateAt(nd.Schedule)
	if err != nil {
		return ProbeReport{}, err
	}
	p.stats.account(p.core.executed()-before, len(nd.Schedule))
	if perr := p.prop(tr); perr != nil {
		rep.Violation = &Violation{Schedule: append([]int(nil), nd.Schedule...), Err: perr}
		return rep, nil
	}
	if len(live) == 0 {
		rep.Leaf = true
		if p.opts.ExpectTermination {
			if pid, ok := unterminated(tr); ok {
				rep.Violation = &Violation{
					Schedule: append([]int(nil), nd.Schedule...),
					Err:      unterminatedErr(pid),
				}
			}
		}
		return rep, nil
	}
	if len(nd.Schedule) >= p.maxDepth {
		rep.DepthTruncated = true
		return rep, nil
	}
	h := p.core.stateHash()
	sleep := nd.Sleep
	if p.por {
		// Same key normalisation as both in-process explorers: restrict
		// the mask to live pids, wake conflicting sleepers, mix into the
		// digest (see explorer.dfs for the full why).
		sleep = normalizeSleep(&p.core, p.core.pendingOps(), sleep&pidMask(live))
		h = mix64(h, sleep)
	}
	rep.Hash = h
	if _, dup := p.seen[h]; dup && !nd.Full {
		p.stats.Deduped++
		rep.Dup = true
		return rep, nil
	}
	p.seen[h] = struct{}{}
	br, reduced := p.provider.branches(&p.core, live, nd.Schedule, sleep)
	rep.Reduced = reduced
	rep.Branches = make([]Branch, len(br))
	for i, b := range br {
		rep.Branches[i] = Branch{Entry: b.entry, Sleep: b.sleep}
	}
	return rep, nil
}

// ShardMaster is the coordinator side of a sharded exploration: the one
// place the visited set lives. Feed it probe reports in any order; hand
// out the nodes it returns to any prober — owners only steer locality
// (see the file comment), never correctness. It is not concurrency-safe
// — fabric coordinators drive it from a single event loop, which is also
// what keeps its decisions deterministic.
type ShardMaster struct {
	maxStates int
	visited   map[uint64]struct{}
	deques    map[int][]Node // per-owner frontier; owner 0 is the unowned pool
	order     []int          // deque keys, first-seen order (0 first): the victim scan order
	npending  int
	inflight  int
	runs      int
	reduced   int
	truncated bool
	violation *Violation
}

// NewShardMaster starts a sharded exploration positioned at the root
// node (in the unowned pool). The options' MaxStates budget is enforced
// exactly, like the serial explorer's pre-insert check.
func NewShardMaster(opts Options) *ShardMaster {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	m := &ShardMaster{
		maxStates: maxStates,
		visited:   make(map[uint64]struct{}),
		deques:    make(map[int][]Node),
		order:     []int{0},
	}
	m.deques[0] = []Node{{Schedule: []int{}}}
	m.npending = 1
	return m
}

// enqueue appends a node to owner's deque, creating it on first use.
func (m *ShardMaster) enqueue(owner int, nd Node) {
	if _, ok := m.deques[owner]; !ok {
		m.order = append(m.order, owner)
	}
	m.deques[owner] = append(m.deques[owner], nd)
	m.npending++
}

// victim picks the deque an idle owner steals from: the unowned pool
// when non-empty (orphans first), else the largest other deque, earliest
// owner on ties. Returns -1 when there is nothing to steal.
func (m *ShardMaster) victim(owner int) int {
	if owner != 0 && len(m.deques[0]) > 0 {
		return 0
	}
	best, bestLen := -1, 0
	for _, o := range m.order {
		if o == owner {
			continue
		}
		if l := len(m.deques[o]); l > bestLen {
			best, bestLen = o, l
		}
	}
	return best
}

// Next hands out up to max pending nodes for owner to probe: the tail of
// its own deque first (deepest — the DFS continuation of the subtree it
// has been probing), then steals of the shallowest nodes of the fullest
// other deque. The batch is sorted into DFS order by decision-stack
// prefix before shipping, so the prober's live session walks it with
// maximal prefix sharing. Every node handed out must eventually be
// either Reported or Requeued, or Done never becomes true.
func (m *ShardMaster) Next(owner, max int) []Node {
	if max <= 0 || m.npending == 0 || m.violation != nil {
		return nil
	}
	if _, ok := m.deques[owner]; !ok {
		m.order = append(m.order, owner)
		m.deques[owner] = nil
	}
	out := make([]Node, 0, min(max, m.npending))
	own := m.deques[owner]
	for len(out) < max && len(own) > 0 {
		out = append(out, own[len(own)-1])
		own = own[:len(own)-1]
	}
	m.deques[owner] = own
	for len(out) < max {
		v := m.victim(owner)
		if v < 0 {
			break
		}
		vd := m.deques[v]
		take := min(max-len(out), len(vd))
		out = append(out, vd[:take]...)
		m.deques[v] = vd[take:]
	}
	slices.SortFunc(out, func(a, b Node) int { return compareSched(a.Schedule, b.Schedule) })
	m.npending -= len(out)
	m.inflight += len(out)
	return out
}

// compareSched orders two decision stacks in serial depth-first order:
// lexicographic over per-node branch ranks (entryKey), prefixes first.
func compareSched(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if entryKey(a[i]) < entryKey(b[i]) {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Report consumes one dispatched node's descent chain from the given
// owner: the visited arbitration the prober could not do, link by link.
// Each link's node is reconstructed here from the master's own copy of
// the dispatched node and the reported first branches, so a report can
// only ever describe nodes the master derives itself. Newly discovered
// children join the reporting owner's deque — the affinity rule that
// keeps a subtree's probes on the session that already holds its prefix.
// Consumption stops at the first link that loses its arbitration (the
// rest of the chain is a pruned subtree) and after a violation the
// exploration is cancelled: late reports are swallowed and no new work
// is produced.
func (m *ShardMaster) Report(owner int, nd Node, descent []ProbeReport) {
	m.inflight--
	if m.violation != nil {
		return
	}
	cur := nd
	for i, rep := range descent {
		if rep.Leaf {
			m.runs++
		}
		if rep.Violation != nil {
			m.violation = rep.Violation
			m.deques = make(map[int][]Node)
			m.npending = 0
			return
		}
		if rep.Leaf {
			return
		}
		if rep.DepthTruncated {
			m.truncated = true
			return
		}
		if rep.Dup {
			// The prober already shipped a full report for this key. If
			// this master has arbitrated it (or the budget is spent), the
			// branches would have been discarded anyway; otherwise the
			// cache was stale — reports crossed between connections, or
			// the caching worker was lost — and the node is re-dispatched
			// uncacheable.
			if _, seen := m.visited[rep.Hash]; seen {
				return
			}
			if len(m.visited) >= m.maxStates {
				m.truncated = true
				return
			}
			cur.Full = true
			m.enqueue(owner, cur)
			return
		}
		if _, seen := m.visited[rep.Hash]; seen {
			return
		}
		if len(m.visited) >= m.maxStates {
			m.truncated = true
			return
		}
		m.visited[rep.Hash] = struct{}{}
		if rep.Reduced {
			m.reduced++
		}
		descends := i+1 < len(descent) && len(rep.Branches) > 0
		for bi, b := range rep.Branches {
			if descends && bi == 0 {
				continue // the next link covers the first branch
			}
			child := make([]int, len(cur.Schedule)+1)
			copy(child, cur.Schedule)
			child[len(cur.Schedule)] = b.Entry
			m.enqueue(owner, Node{Schedule: child, Sleep: b.Sleep})
		}
		if !descends {
			return
		}
		b := rep.Branches[0]
		sched := make([]int, len(cur.Schedule)+1)
		copy(sched, cur.Schedule)
		sched[len(cur.Schedule)] = b.Entry
		cur = Node{Schedule: sched, Sleep: b.Sleep}
	}
}

// Requeue returns handed-out nodes to the unowned pool — the re-delivery
// path when a prober disappears mid-probe. Probes are pure replays, so
// re-dispatching them is idempotent by construction.
func (m *ShardMaster) Requeue(nodes []Node) {
	m.inflight -= len(nodes)
	if m.violation != nil {
		return
	}
	for _, nd := range nodes {
		m.enqueue(0, nd)
	}
}

// Violated reports that a violation has been found (the exploration is
// cancelled; outstanding probes may still be reported and are ignored).
func (m *ShardMaster) Violated() bool { return m.violation != nil }

// Done reports that the exploration is complete: nothing pending,
// nothing in flight — or a violation ended it early.
func (m *ShardMaster) Done() bool {
	return m.violation != nil || (m.inflight == 0 && m.npending == 0)
}

// Result summarises the exploration so far. On a violation the counters
// describe the cancelled partial exploration; callers wanting the
// canonical verdict pass the result through CanonicalResult.
func (m *ShardMaster) Result() Result {
	return Result{
		States:       len(m.visited),
		Runs:         m.runs,
		Truncated:    m.truncated,
		ReducedNodes: m.reduced,
		Violation:    m.violation,
	}
}

// CanonicalResult canonicalises a violating sharded result exactly the
// way exploreParallel canonicalises a violating parallel one: re-run the
// serial explorer, which stops at the depth-first-minimal violation, and
// report its result — so a coordinator's verdict is byte-identical to
// Workers=1 no matter which shard tripped the property first. Non-
// violating results pass through unchanged. The fallback mirrors
// exploreParallel too: if a budget truncates the rerun short of any
// violation, the sharded witness is kept.
func CanonicalResult(build Builder, prop Property, opts Options, res Result) (Result, error) {
	if res.Violation == nil {
		return res, nil
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 200
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	serial, err := exploreSerial(build, prop, opts, maxDepth, maxStates)
	if err != nil {
		return Result{}, err
	}
	if serial.Violation == nil {
		serial.Violation = res.Violation
	}
	return serial, nil
}

// ReplaysToViolation replays a witness schedule (Decisions encoding:
// entry pid steps pid, entry -pid-1 crashes it) through a session on a
// fresh program instance and reports whether it reproduces a violation:
// either the property rejects the trace, or — mirroring the explorers'
// leaf check under Options.ExpectTermination — the replayed run is
// maximal with a started process that neither terminated nor crashed.
// It is the independent re-verification step distributed coordinators
// (and cfccheck -pordiff) run on every witness that arrives over a wire
// before trusting it.
func ReplaysToViolation(build Builder, prop Property, opts Options, schedule []int) (bool, error) {
	mem, procs, err := build()
	if err != nil {
		return false, err
	}
	sess, err := sim.StartSession(sim.Config{Mem: mem, Procs: procs, MaxSteps: len(schedule) + 1})
	if err != nil {
		return false, err
	}
	defer sess.Close()
	if err := sess.Seek(schedule); err != nil {
		return false, fmt.Errorf("witness schedule does not replay: %w", err)
	}
	tr := sess.Trace()
	if prop(tr) != nil {
		return true, nil
	}
	if opts.ExpectTermination && sess.Finished() {
		if _, ok := unterminated(tr); ok {
			return true, nil
		}
	}
	return false, nil
}

// PORAutoKeepReduced is the PORAuto decision, shared by exploreAuto and
// distributed coordinators: a reduced exploration is kept outright when
// it found a violation (POR verdicts are sound) or when the reduction
// was healthy — at least a quarter of the expanded nodes reduced.
func PORAutoKeepReduced(por Result) bool {
	return por.Violation != nil || por.ReducedNodes*4 >= por.States
}

// PORAutoPick chooses between the reduced and the reference exploration
// after both ran, shared by exploreAuto and distributed coordinators:
// the reference wins when it found a violation or visited fewer states,
// and is marked PORDisabled.
func PORAutoPick(por, full Result) Result {
	if full.Violation != nil || full.States < por.States {
		full.PORDisabled = true
		return full
	}
	return por
}
