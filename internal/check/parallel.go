package check

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the parallel explorer: a pool of workers, each owning a
// private program instance (one Builder call) and one arena-backed live
// session, cooperating through
//
//   - per-worker frontier deques with work stealing (a worker pushes the
//     non-first branches of every node it expands onto its own deque,
//     pops locally from the tail — deepest first, preserving the
//     prefix-extension fast path of its live session — and steals from
//     other workers' heads, where the shallowest nodes with the largest
//     subtrees sit), and
//
//   - a sharded visited set holding the state hashes, with a strictly
//     enforced global budget, so each reachable state's subtree is
//     expanded by exactly one worker.
//
// Each worker chases chains: after expanding a node it continues with the
// node's first branch in place, which Session.Seek turns into a single
// extension of the live run. Only stolen or popped nodes pay a rewind,
// and only for the processes that moved after the longest common prefix
// of consecutive local pops, which is typically the whole parent path.
//
// Verdicts match the serial explorer exactly. For explorations that
// complete within their budgets this is a theorem, not luck: the visited
// set is the closure of the initial state under the transition relation
// (state hashes are future-deterministic), which no visit order changes,
// and Runs counts the leaves of the pruned tree, which is the same
// quantity for any order. When a worker finds a violation the pool is
// cancelled and Explore re-runs serially for the canonical
// depth-first-minimal counterexample; see Options.Workers.

// visitShards is the number of independently locked segments of the
// visited set. 64 shards keep lock contention negligible for any worker
// count this explorer is run with.
const visitShards = 64

type visitShard struct {
	mu sync.Mutex
	m  map[uint64]struct{}
	// Pad the 8-byte mutex + 8-byte map header to a 64-byte stride so
	// neighbouring shards' locks do not false-share a cache line.
	_ [48]byte
}

// shardedSet is the concurrent visited set: hash-sharded maps plus a
// global size that enforces the state budget exactly (never overshooting,
// like the serial explorer's pre-insert check).
type shardedSet struct {
	shards [visitShards]visitShard
	size   atomic.Int64
}

func newShardedSet() *shardedSet {
	s := &shardedSet{}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]struct{})
	}
	return s
}

// Len returns the number of states inserted.
func (s *shardedSet) Len() int { return int(s.size.Load()) }

// insert adds h unless present or the budget is exhausted. added reports
// a successful first insertion; full reports that the budget blocked it.
func (s *shardedSet) insert(h uint64, budget int) (added, full bool) {
	sh := &s.shards[h>>(64-6)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, seen := sh.m[h]; seen {
		return false, false
	}
	// Reserve a slot in the global budget before inserting, so States
	// never exceeds MaxStates (the serial explorer checks before
	// inserting too).
	for {
		n := s.size.Load()
		if n >= int64(budget) {
			return false, true
		}
		if s.size.CompareAndSwap(n, n+1) {
			break
		}
	}
	sh.m[h] = struct{}{}
	return true, false
}

// porTask is one frontier node: the schedule reaching it plus its sleep
// set. The sleep set travels with the node — a stolen node must be
// expanded exactly as its originating worker would have expanded it, or
// the (state, sleep)-keyed exploration would depend on who steals what.
type porTask struct {
	sched []int
	sleep uint64
}

// deque is one worker's frontier: owner pushes and pops at the tail,
// thieves steal from the head. A plain mutex suffices — pushes are
// batched per expanded node and the critical sections are a few
// instructions, so this is never the bottleneck at realistic worker
// counts. It is generic over the task type so the static-POR explorer
// (porTask) and the DPOR engine (dtask, see dpor.go) share it.
type deque[T any] struct {
	mu    sync.Mutex
	nodes []T
}

func (d *deque[T]) push(batch []T) {
	d.mu.Lock()
	d.nodes = append(d.nodes, batch...)
	d.mu.Unlock()
}

// pop takes the most recently pushed node (owner side).
func (d *deque[T]) pop() (T, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var zero T
	n := len(d.nodes)
	if n == 0 {
		return zero, false
	}
	s := d.nodes[n-1]
	d.nodes[n-1] = zero
	d.nodes = d.nodes[:n-1]
	return s, true
}

// steal takes the oldest node (thief side): the shallowest frontier entry,
// which roots the largest remaining subtree.
func (d *deque[T]) steal() (T, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var zero T
	if len(d.nodes) == 0 {
		return zero, false
	}
	s := d.nodes[0]
	d.nodes[0] = zero
	d.nodes = d.nodes[1:]
	return s, true
}

// frontier coordinates the per-worker deques: work distribution,
// stealing, idle parking and termination detection. inflight counts
// queued nodes plus chains being chased; the exploration is complete when
// it reaches zero.
type frontier[T any] struct {
	deques   []deque[T]
	inflight atomic.Int64
	stop     atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
}

func newFrontier[T any](workers int) *frontier[T] {
	f := &frontier[T]{deques: make([]deque[T], workers)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// seed enqueues the root node on worker 0's deque.
func (f *frontier[T]) seed(root T) {
	f.inflight.Store(1)
	f.deques[0].push([]T{root})
}

// push enqueues a batch of sibling nodes on the owner's deque and wakes
// parked workers.
func (f *frontier[T]) push(owner int, batch []T) {
	f.inflight.Add(int64(len(batch)))
	f.deques[owner].push(batch)
	f.mu.Lock()
	if f.waiting > 0 {
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// taskDone retires one node's chain; the last retirement wakes everyone
// so they can observe completion.
func (f *frontier[T]) taskDone() {
	if f.inflight.Add(-1) == 0 {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// halt cancels the exploration: next returns false everywhere, queued
// nodes are abandoned.
func (f *frontier[T]) halt() {
	f.stop.Store(true)
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
}

// next returns the next node for worker owner: its own tail, else a steal
// from another worker's head, else it parks until work arrives or the
// exploration completes or halts. The second return is false when the
// worker should exit.
func (f *frontier[T]) next(owner int) (T, bool) {
	var zero T
	n := len(f.deques)
	for {
		if f.stop.Load() {
			return zero, false
		}
		if s, ok := f.deques[owner].pop(); ok {
			return s, true
		}
		for i := 1; i < n; i++ {
			if s, ok := f.deques[(owner+i)%n].steal(); ok {
				return s, true
			}
		}
		f.mu.Lock()
		// Re-scan while holding the parking lock: a push that completed
		// after the scans above either is found here, or its wake runs
		// after our Wait releases the lock and sees waiting > 0. Either
		// way no wakeup is missed. (Pushers take a deque lock and the
		// parking lock sequentially, never nested, so the lock order
		// parking->deque used here cannot deadlock.)
		if s, ok := f.grabAnyLocked(owner); ok {
			f.mu.Unlock()
			return s, true
		}
		if f.stop.Load() || f.inflight.Load() == 0 {
			f.mu.Unlock()
			return zero, false
		}
		f.waiting++
		f.cond.Wait()
		f.waiting--
		f.mu.Unlock()
	}
}

func (f *frontier[T]) grabAnyLocked(owner int) (T, bool) {
	var zero T
	n := len(f.deques)
	for i := 0; i < n; i++ {
		idx := (owner + i) % n
		if idx == owner {
			if s, ok := f.deques[idx].pop(); ok {
				return s, true
			}
		} else if s, ok := f.deques[idx].steal(); ok {
			return s, true
		}
	}
	return zero, false
}

// parexplorer is the shared state of one parallel exploration.
type parexplorer struct {
	prop      Property
	opts      Options
	maxDepth  int
	maxStates int
	provider  enabledProvider
	por       bool

	visited   *shardedSet
	fr        *frontier[porTask]
	runs      atomic.Int64
	reduced   atomic.Int64
	truncated atomic.Bool
	cancel    atomic.Bool

	mu       sync.Mutex
	firstErr error
	viol     *Violation // depth-first-minimal violation among those found
}

func exploreParallel(build Builder, prop Property, opts Options, maxDepth, maxStates int) (Result, error) {
	workers := opts.Workers
	e := &parexplorer{
		prop:      prop,
		opts:      opts,
		maxDepth:  maxDepth,
		maxStates: maxStates,
		visited:   newShardedSet(),
		fr:        newFrontier[porTask](workers),
	}

	// Builder calls are sequential (the Builder contract does not require
	// concurrent safety); only the resulting private instances run
	// concurrently.
	cores := make([]*replayCore, workers)
	for i := range cores {
		cores[i] = new(replayCore)
		if err := cores[i].init(build, maxDepth, opts.CollapseSpins); err != nil {
			return Result{}, err
		}
	}
	e.provider, e.por = newProvider(opts, len(cores[0].procs))

	e.fr.seed(porTask{sched: []int{}})
	var wg sync.WaitGroup
	for i := range cores {
		wg.Add(1)
		go func(id int, core *replayCore) {
			defer wg.Done()
			defer core.close()
			for {
				t, ok := e.fr.next(id)
				if !ok {
					return
				}
				e.chase(id, core, t)
				e.fr.taskDone()
			}
		}(i, cores[i])
	}
	wg.Wait()

	if e.firstErr != nil {
		return Result{}, e.firstErr
	}
	if e.viol != nil {
		// Canonicalise: the serial explorer reports the depth-first-first
		// violation, which is what Workers=1 callers (and the recorded
		// regression witnesses) see. The serial rerun stops as soon as it
		// reaches that violation, so it never explores more than a serial
		// call would have.
		res, err := exploreSerial(build, prop, opts, maxDepth, maxStates)
		if err != nil {
			return Result{}, err
		}
		if res.Violation == nil {
			// Only possible when a budget truncated the rerun along a
			// different order; fall back to the parallel witness.
			res.Violation = e.viol
		}
		return res, nil
	}
	return Result{
		States:       e.visited.Len(),
		Runs:         int(e.runs.Load()),
		Truncated:    e.truncated.Load(),
		ReducedNodes: int(e.reduced.Load()),
	}, nil
}

// chase explores a chain starting at a frontier node: it expands the
// node, pushes all branches but the first onto the worker's deque and
// continues with the first branch in place, so the worker's live session
// is extended by exactly one decision per node along the chain. The chain
// ends at leaves, pruned states, budget cut-offs, violations or
// cancellation.
func (e *parexplorer) chase(id int, core *replayCore, t porTask) {
	schedule, sleep := t.sched, t.sleep
	// A panic anywhere along the chain — a buggy algorithm body, property
	// or provider — must not take down the process: it is converted into a
	// checker error verdict carrying the schedule prefix being expanded,
	// and the pool is cancelled. The worker's core is left as-is; the
	// exploration is over.
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("check: worker %d panicked expanding schedule prefix %v: %v", id, schedule, r))
		}
	}()
	for {
		if e.cancel.Load() {
			return
		}
		tr, live, err := core.stateAt(schedule)
		if err != nil {
			e.fail(err)
			return
		}
		if err := e.prop(tr); err != nil {
			e.foundViolation(schedule, err)
			return
		}
		if len(live) == 0 {
			e.runs.Add(1)
			if e.opts.ExpectTermination {
				if pid, ok := unterminated(tr); ok {
					e.foundViolation(schedule, unterminatedErr(pid))
				}
			}
			return
		}
		if len(schedule) >= e.maxDepth {
			e.truncated.Store(true)
			return
		}
		h := core.stateHash()
		if e.por {
			// Nodes are (state, sleep set), as in the serial DFS. The mask
			// is normalised first — live pids only, conflicting sleepers
			// woken — see the serial explorer for why that is sound and
			// what it recovers.
			sleep = normalizeSleep(core, core.pendingOps(), sleep&pidMask(live))
			h = mix64(h, sleep)
		}
		added, full := e.visited.insert(h, e.maxStates)
		if full {
			e.truncated.Store(true)
			return
		}
		if !added {
			return
		}

		// Branches in serial depth-first order, from the same provider the
		// serial DFS asks. The first continues this chain; the rest become
		// frontier nodes, each owning a fresh schedule copy plus its sleep
		// set.
		br, reduced := e.provider.branches(core, live, schedule, sleep)
		if reduced {
			e.reduced.Add(1)
		}
		if len(br) == 0 {
			return // every enabled step is asleep: covered by a sibling subtree
		}
		if len(br) > 1 {
			rest := make([]porTask, 0, len(br)-1)
			for _, b := range br[1:] {
				rest = append(rest, porTask{sched: childSchedule(schedule, b.entry), sleep: b.sleep})
			}
			e.fr.push(id, rest)
		}
		schedule = append(schedule, br[0].entry)
		sleep = br[0].sleep
	}
}

func childSchedule(schedule []int, entry int) []int {
	c := make([]int, len(schedule)+1)
	copy(c, schedule)
	c[len(schedule)] = entry
	return c
}

func (e *parexplorer) fail(err error) {
	e.mu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
	e.halt()
}

func (e *parexplorer) foundViolation(schedule []int, err error) {
	v := &Violation{Schedule: append([]int(nil), schedule...), Err: err}
	e.mu.Lock()
	if e.viol == nil || dfsLess(v.Schedule, e.viol.Schedule) {
		e.viol = v
	}
	e.mu.Unlock()
	e.halt()
}

func (e *parexplorer) halt() {
	e.cancel.Store(true)
	e.fr.halt()
}

// dfsLess orders schedules by serial depth-first visit order: prefixes
// first, then by the first differing entry with steps (ascending pid)
// before crashes (ascending pid).
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
