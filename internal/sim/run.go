package sim

import (
	"fmt"

	"cfc/internal/opset"
)

// DefaultMaxSteps bounds the number of scheduled events in a run when
// Config.MaxSteps is zero. Busy-waiting algorithms can run forever under
// an unfair scheduler; the budget turns that into a reported StopMaxSteps.
const DefaultMaxSteps = 1 << 20

// ProcFunc is the body of a process: ordinary sequential Go code that
// accesses shared memory through the Proc it receives. The function for
// index i runs as process id i.
type ProcFunc func(p *Proc)

// Engine selects the execution engine used to drive process bodies; see
// the package comment for the trade-offs.
type Engine uint8

const (
	// EngineAuto picks the direct engine when the scheduler is known to be
	// deterministic (the built-in schedulers, or any scheduler implementing
	// DeterministicScheduler) and the goroutine engine otherwise.
	EngineAuto Engine = iota
	// EngineDirect forces the direct engine: process bodies execute on the
	// run-loop goroutine, inline for run-to-completion schedulers (Solo,
	// Sequential) and via coroutine handoff otherwise. It is an order of
	// magnitude faster than the goroutine engine and produces identical
	// traces for every scheduler whose decisions depend only on the
	// observed ready sets and step numbers.
	EngineDirect
	// EngineGoroutine forces the original engine: one goroutine per
	// process, synchronised with the run loop through unbuffered channels.
	EngineGoroutine
)

// Config describes one run.
type Config struct {
	// Mem is the shared memory; it is Reset at the start of the run.
	Mem *Memory
	// Procs are the process bodies; process ids are the slice indices.
	// A nil entry is a process that stays in its remainder region.
	Procs []ProcFunc
	// Sched picks the interleaving. Defaults to Sequential{}.
	Sched Scheduler
	// MaxSteps bounds scheduled events (accesses + local steps);
	// 0 means DefaultMaxSteps.
	MaxSteps int
	// Engine selects the execution engine; EngineAuto (the zero value)
	// picks the fastest engine that is exact for the scheduler.
	Engine Engine
	// Reuse, if non-nil, recycles the run's trace, event buffer and run-loop
	// scratch from the arena instead of allocating. The returned Result and
	// Trace alias the arena: they are valid only until the next Run with the
	// same arena. Replay-heavy callers (the model checker, measurement
	// sweeps) use one arena across thousands of runs.
	Reuse *Arena
	// Sink, if non-nil, receives the run's event stream instead of the
	// default buffered trace (see the Sink contract in sink.go). With a
	// streaming or aggregating sink the run retains no events at all —
	// Result.Trace is then nil (unless Sink is itself a *TraceSink) and
	// memory stays bounded across any number of runs. Sinks compose with
	// Reuse: the arena still recycles the run-loop and engine scratch.
	Sink Sink
}

// Result is the outcome of a run.
type Result struct {
	// Trace is the full event record, possibly partial if the run was
	// aborted. It is non-nil whenever the run buffered — Config.Sink nil
	// (the default) or a *TraceSink — and nil for any other sink.
	Trace *Trace
	// Stop is why the run ended. It mirrors Trace.Stop and is available
	// even when a non-buffering Config.Sink leaves Trace nil.
	Stop StopReason
	// Err is non-nil if a process performed an illegal access (operation
	// outside the memory model, width violation). The trace then ends at
	// the offending access, which is not recorded.
	Err error
}

// request kinds sent from process bodies to the run loop.
type reqKind uint8

const (
	reqAccess reqKind = iota + 1 // scheduled: one atomic shared access
	reqLocal                     // scheduled: internal step, no memory touch
	reqMark                      // scheduled: phase annotation (internal event)
	reqOutput                    // scheduled: decision value (internal event)
	reqDone                      // instant: process body returned
)

type request struct {
	kind  reqKind
	op    opset.Op
	reg   Reg
	arg   uint64
	phase Phase
	out   uint64
}

type response struct {
	ret    uint64
	hasRet bool
	kill   bool
}

// unwind is the panic payload used to unwind a process body when the run
// loop kills it. It never escapes the package: the per-process wrapper
// recovers it.
type unwind struct{}

// Proc is the handle through which a process body accesses shared memory.
// Every access blocks until the scheduler grants the process its next
// atomic step, so the body observes exactly the interleaving the scheduler
// chose. A Proc is only valid inside the ProcFunc it was passed to and
// must not be shared with other goroutines.
type Proc struct {
	id int
	n  int

	// inl is set by the inline direct engine: the run loop executes the
	// body on its own goroutine and performs accesses immediately.
	inl *runLoop

	// yield/resp are set by the coroutine direct engine: yield suspends the
	// body and hands the request to the run loop, which stores the answer
	// in resp before resuming. rerun tells the coroutine to run the body
	// again as soon as the kill in resp has unwound it.
	yield func(request) bool
	resp  response
	rerun bool

	// feed, while non-empty, indexes the recorded events a Session rewind
	// re-feeds to this body: do answers each request that matches
	// events[feed[0]] from that event and pops it, without yielding.
	feed   []int32
	events []Event

	// req/res are set by the goroutine engine.
	req chan request
	res chan response
}

// ID returns the process id (the index of the body in Config.Procs).
// Paper processes are numbered 1..n; simulator pids are 0-based, and
// algorithms that need a 1-based identifier use ID()+1.
func (p *Proc) ID() int { return p.id }

// N returns the total number of processes in the run.
func (p *Proc) N() int { return p.n }

func (p *Proc) do(r request) response {
	if p.inl != nil {
		return p.inl.inlineDo(p.id, r)
	}
	if p.yield != nil {
		if len(p.feed) > 0 {
			if e := &p.events[p.feed[0]]; requestMatches(r, e) {
				p.feed = p.feed[1:]
				return response{ret: e.Ret, hasRet: e.HasRet}
			}
		}
		if !p.yield(r) {
			panic(unwind{})
		}
		resp := p.resp
		if resp.kill {
			panic(unwind{})
		}
		return resp
	}
	p.req <- r
	resp := <-p.res
	if resp.kill {
		panic(unwind{})
	}
	return resp
}

// Read atomically reads the register view and returns its value. On a
// single-bit view it issues the paper's read operation; on wider views it
// issues read-word. One atomic step.
func (p *Proc) Read(r Reg) uint64 {
	op := opset.ReadWord
	if r.IsBit() {
		op = opset.Read
	}
	return p.do(request{kind: reqAccess, op: op, reg: r}).ret
}

// Write atomically writes v to the register view. On a single-bit view it
// issues write-0 or write-1; on wider views it issues write-word. One
// atomic step.
func (p *Proc) Write(r Reg, v uint64) {
	op := opset.WriteWord
	if r.IsBit() {
		if v == 0 {
			op = opset.Write0
		} else {
			op = opset.Write1
			v = 0
		}
	}
	p.do(request{kind: reqAccess, op: op, reg: r, arg: v})
}

// TestAndSet atomically sets the bit to 1 and returns the old value.
func (p *Proc) TestAndSet(r Reg) uint64 {
	return p.do(request{kind: reqAccess, op: opset.TestAndSet, reg: r}).ret
}

// TestAndReset atomically resets the bit to 0 and returns the old value.
func (p *Proc) TestAndReset(r Reg) uint64 {
	return p.do(request{kind: reqAccess, op: opset.TestAndReset, reg: r}).ret
}

// TestAndFlip atomically complements the bit and returns the old value.
func (p *Proc) TestAndFlip(r Reg) uint64 {
	return p.do(request{kind: reqAccess, op: opset.TestAndFlip, reg: r}).ret
}

// Flip atomically complements the bit without returning a value.
func (p *Proc) Flip(r Reg) {
	p.do(request{kind: reqAccess, op: opset.Flip, reg: r})
}

// Skip performs the paper's skip operation: an atomic access that neither
// changes the bit nor returns a value. It still costs one step.
func (p *Proc) Skip(r Reg) {
	p.do(request{kind: reqAccess, op: opset.Skip, reg: r})
}

// Local performs one internal computation step: it consumes a scheduling
// turn (other processes may run before and after) but touches no shared
// register and does not count toward step complexity. Backoff delays are
// built from Local steps.
func (p *Proc) Local() {
	p.do(request{kind: reqLocal})
}

// Mark records entry into a protocol phase. A mark is an internal event of
// the run: it consumes a scheduling turn (the adversary decides when the
// process changes phase) but is not a shared-memory access and does not
// count toward step complexity.
func (p *Proc) Mark(ph Phase) {
	p.do(request{kind: reqMark, phase: ph})
}

// Output records the process's decision value (detector output, chosen
// name). Like Mark, it is a scheduled internal event.
func (p *Proc) Output(v uint64) {
	p.do(request{kind: reqOutput, out: v})
}

// engineKind is the resolved execution strategy for one run.
type engineKind uint8

const (
	engineGoroutine engineKind = iota
	engineInline               // direct: bodies run inline, run-to-completion
	engineCoro                 // direct: bodies run as same-thread coroutines
)

// pickEngine resolves the Config.Engine choice against the scheduler.
func pickEngine(sched Scheduler, choice Engine) engineKind {
	runToCompletion := false
	switch sched.(type) {
	case Solo, Sequential:
		runToCompletion = true
	}
	switch choice {
	case EngineGoroutine:
		return engineGoroutine
	case EngineDirect:
		if runToCompletion {
			return engineInline
		}
		return engineCoro
	default: // EngineAuto
		if runToCompletion {
			return engineInline
		}
		if isDeterministic(sched) {
			return engineCoro
		}
		return engineGoroutine
	}
}

// isDeterministic reports whether the scheduler advertises deterministic
// decisions (directly or, for Crasher, through its inner scheduler).
func isDeterministic(s Scheduler) bool {
	if c, ok := s.(*Crasher); ok {
		return isDeterministic(c.Inner)
	}
	_, ok := s.(DeterministicScheduler)
	return ok
}

// Run executes one run under cfg and returns its result. The memory is
// reset first. Run never leaks goroutines: every process body is unwound
// before Run returns. An error is returned only for configuration
// mistakes; illegal accesses during the run are reported in Result.Err
// with a partial trace.
func Run(cfg Config) (*Result, error) {
	loop, result, err := setupRun(cfg)
	if err != nil {
		return nil, err
	}
	switch pickEngine(loop.sched, cfg.Engine) {
	case engineInline:
		if s, ok := loop.sched.(Solo); ok {
			err = loop.runInlineSolo(s.PID)
		} else {
			err = loop.runInlineSeq()
		}
	case engineCoro:
		err = loop.run(newCoroTransport(cfg.Procs, cfg.Reuse))
	default:
		err = loop.run(newGoroTransport(cfg.Procs))
	}
	loop.sink.End(loop.stop, loop.steps)
	if loop.buf != nil {
		result.Trace = loop.buf.tr
	} else {
		result.Trace = nil
	}
	result.Stop = loop.stop
	result.Err = err
	return result, nil
}

// setupRun validates cfg, resets the memory and initialises the run-loop
// state (from the reuse arena when one is provided). It is shared by Run
// and StartSession.
func setupRun(cfg Config) (*runLoop, *Result, error) {
	if cfg.Mem == nil {
		return nil, nil, fmt.Errorf("sim: Config.Mem is nil")
	}
	if len(cfg.Procs) == 0 {
		return nil, nil, fmt.Errorf("sim: no processes")
	}
	sched := cfg.Sched
	if sched == nil {
		sched = Sequential{}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	mem := cfg.Mem
	mem.Reset()
	n := len(cfg.Procs)

	ar := cfg.Reuse
	var (
		loop   *runLoop
		result *Result
	)
	if ar != nil {
		ar.prepare(n)
		loop, result = &ar.loop, &ar.result
	} else {
		loop = new(runLoop)
		result = new(Result)
	}

	// Resolve the sink: an explicit Config.Sink wins; otherwise buffer
	// into the arena's trace, or a fresh one.
	loop.buf = nil
	if cfg.Sink != nil {
		loop.sink = cfg.Sink
		if ts, ok := cfg.Sink.(*TraceSink); ok {
			loop.buf = ts
		}
	} else if ar != nil {
		if ar.tsink.tr == nil {
			ar.tsink.tr = &ar.trace
		}
		loop.buf = &ar.tsink
		loop.sink = loop.buf
	} else {
		loop.buf = &TraceSink{tr: &Trace{Events: make([]Event, 0, eventsHint(maxSteps, n))}}
		loop.sink = loop.buf
	}

	loop.mem = mem
	loop.bodies = cfg.Procs
	loop.sched = sched
	loop.maxSteps = maxSteps
	loop.steps = 0
	loop.seq = 0
	loop.stop = 0
	loop.arena = ar
	loop.inlineErr = nil
	loop.npending = 0
	loop.readyStale = false
	if cap(loop.pending) < n {
		loop.pending = make([]request, n)
		loop.ready = make([]int, 0, n)
	} else {
		loop.pending = loop.pending[:n]
		clear(loop.pending)
		loop.ready = loop.ready[:0]
	}
	if cap(loop.crashed) < n {
		loop.crashed = make([]bool, n)
	} else {
		loop.crashed = loop.crashed[:n]
		clear(loop.crashed)
	}
	loop.ncrashed = 0
	loop.sink.Begin(RunInfo{NumProcs: n, MaxSteps: maxSteps, mem: mem})
	return loop, result, nil
}

// eventsHint pre-sizes the event buffer: most runs are short (solo
// attempts, bounded replays), so a modest capacity removes the first few
// growth reallocations without wasting memory on them.
func eventsHint(maxSteps, n int) int {
	hint := maxSteps + n + 1
	if hint > 128 {
		hint = 128
	}
	return hint
}

// runLoop owns all memory mutation and event recording for one run. The
// pending table is pid-indexed (kind 0 marks "no pending event") and the
// sorted ready list is derived from it lazily: it is rebuilt, in place,
// only after a membership change (termination or crash), so steady-state
// scheduling does no list maintenance at all.
type runLoop struct {
	mem      *Memory
	sink     Sink
	buf      *TraceSink // non-nil iff the run buffers; buf.tr is the result trace
	bodies   []ProcFunc
	sched    Scheduler
	maxSteps int
	steps    int
	seq      int        // events emitted so far (the next Event.Seq)
	stop     StopReason // why the run ended; mirrored to the sink at End
	ev       Event      // sink scratch: a loop field, so &l.ev never allocates
	arena    *Arena

	pending    []request // pid-indexed; kind == 0 means not ready
	npending   int
	ready      []int // sorted pids with a pending event
	readyStale bool

	crashed  []bool // pid-indexed; true between a crash and a restart
	ncrashed int

	inlineErr error // access error recorded by the inline engine
}

// transport is how a run loop drives process bodies; the goroutine and
// coroutine engines differ only here.
type transport interface {
	// start runs pid's body up to its first request. ok is false if the
	// body terminated without issuing one.
	start(pid int) (req request, ok bool)
	// resume delivers resp for pid's previous request and runs the body up
	// to its next request. ok is false if the body terminated.
	resume(pid int, resp response) (req request, ok bool)
	// kill unwinds pid's body without performing its pending request.
	kill(pid int)
	// restart re-runs pid's body from the beginning up to its first
	// request; the previous body incarnation was already killed. ok is
	// false if the body terminated without issuing one.
	restart(pid int) (req request, ok bool)
	// finish releases engine resources; no body survives it.
	finish()
}

// run drives the scheduler loop over a transport. It is the exact
// semantics both engines share: one pending event per started process,
// one scheduled event performed at a time.
func (l *runLoop) run(t transport) error {
	defer t.finish()
	l.absorb(t)

	// A RestartCapable scheduler keeps the run alive while crashed
	// processes remain revivable, even with nothing pending; Next is then
	// called with an empty ready slice (see RestartCapable).
	rc, _ := l.sched.(RestartCapable)
	for l.npending > 0 || (l.ncrashed > 0 && rc != nil && rc.CanRestart()) {
		if l.steps >= l.maxSteps {
			l.stop = StopMaxSteps
			l.unwindAll(t)
			return nil
		}

		l.refreshReady()
		d := l.sched.Next(l.ready, l.steps)
		switch d.Action {
		case ActStop:
			l.stop = StopScheduler
			l.unwindAll(t)
			return nil

		case ActCrash:
			if !l.isPending(d.PID) {
				l.stop = StopError
				l.unwindAll(t)
				return fmt.Errorf("sim: scheduler crashed non-ready process %d", d.PID)
			}
			l.crashProc(d.PID, t)

		case ActRestart:
			if !l.isCrashed(d.PID) {
				l.stop = StopError
				l.unwindAll(t)
				return fmt.Errorf("sim: scheduler restarted non-crashed process %d", d.PID)
			}
			l.restartCrashed(d.PID, t)

		case ActStep:
			if !l.isPending(d.PID) {
				l.stop = StopError
				l.unwindAll(t)
				return fmt.Errorf("sim: scheduler picked non-ready process %d", d.PID)
			}
			if err := l.stepReady(d.PID, t); err != nil {
				l.stop = StopError
				l.readyStale = true
				t.kill(d.PID)
				l.unwindAll(t)
				return err
			}

		default:
			l.stop = StopError
			l.unwindAll(t)
			return fmt.Errorf("sim: scheduler returned invalid action %d", d.Action)
		}
	}
	l.stop = StopAllDone
	return nil
}

// absorb runs every process body up to its first request, which becomes
// its pending event; bodies that return without one are recorded done.
func (l *runLoop) absorb(t transport) {
	for pid, body := range l.bodies {
		if body == nil {
			continue
		}
		if req, ok := t.start(pid); ok {
			l.setPending(pid, req)
		} else {
			l.record(Event{PID: pid, Kind: KindMark, Phase: PhaseDone})
		}
	}
	l.readyStale = true
}

// stepReady performs pid's pending event — the caller has verified there
// is one — and runs the body to its next request. A returned error is an
// illegal access; the caller owns killing and unwinding.
func (l *runLoop) stepReady(pid int, t transport) error {
	req := l.pending[pid]
	l.pending[pid] = request{}
	l.npending--
	resp, err := l.perform(pid, req)
	if err != nil {
		return err
	}
	if req2, ok := t.resume(pid, resp); ok {
		// Membership unchanged: the ready list stays valid.
		l.pending[pid] = req2
		l.npending++
	} else {
		l.record(Event{PID: pid, Kind: KindMark, Phase: PhaseDone})
		l.readyStale = true
	}
	return nil
}

// perform executes one scheduled event for pid and returns the response
// owed to the process. It is the single place memory is mutated and events
// are recorded, shared by all engines.
func (l *runLoop) perform(pid int, req request) (response, error) {
	l.steps++
	switch req.kind {
	case reqAccess:
		ret, hasRet, err := l.mem.apply(req.reg, req.op, req.arg)
		if err != nil {
			return response{}, fmt.Errorf("process %d: %w", pid, err)
		}
		l.record(Event{
			PID:    pid,
			Kind:   KindAccess,
			Op:     req.op,
			Cell:   req.reg.cell,
			Shift:  req.reg.shift,
			Width:  req.reg.width,
			Arg:    req.arg,
			Ret:    ret,
			HasRet: hasRet,
		})
		return response{ret: ret, hasRet: hasRet}, nil
	case reqLocal:
		l.record(Event{PID: pid, Kind: KindLocal})
		return response{}, nil
	case reqMark:
		l.record(Event{PID: pid, Kind: KindMark, Phase: req.phase})
		return response{}, nil
	case reqOutput:
		l.record(Event{PID: pid, Kind: KindOutput, Out: req.out})
		return response{}, nil
	default:
		return response{}, fmt.Errorf("sim: internal error: scheduled request kind %d", req.kind)
	}
}

func (l *runLoop) isPending(pid int) bool {
	return pid >= 0 && pid < len(l.pending) && l.pending[pid].kind != 0
}

func (l *runLoop) isCrashed(pid int) bool {
	return pid >= 0 && pid < len(l.crashed) && l.crashed[pid]
}

// crashProc injects a stopping failure into pid (which the caller has
// verified is pending): the pending event is discarded, the body is
// unwound, and the process is marked crashed so a later ActRestart can
// revive it. Crashes do not consume a scheduling step.
func (l *runLoop) crashProc(pid int, t transport) {
	l.clearPending(pid)
	l.record(Event{PID: pid, Kind: KindCrash})
	t.kill(pid)
	l.crashed[pid] = true
	l.ncrashed++
}

// restartCrashed revives pid (which the caller has verified is crashed):
// its body is re-run from the beginning, against the surviving shared
// memory, up to its first request. A restart consumes a scheduling step —
// that keeps crash/restart storms bounded by the step budget.
func (l *runLoop) restartCrashed(pid int, t transport) {
	l.steps++
	l.crashed[pid] = false
	l.ncrashed--
	l.record(Event{PID: pid, Kind: KindRestart})
	if req, ok := t.restart(pid); ok {
		l.setPending(pid, req)
	} else {
		l.record(Event{PID: pid, Kind: KindMark, Phase: PhaseDone})
	}
	l.readyStale = true
}

func (l *runLoop) setPending(pid int, req request) {
	l.pending[pid] = req
	l.npending++
}

// clearPending removes pid's event and marks the ready list for rebuild.
func (l *runLoop) clearPending(pid int) {
	l.pending[pid] = request{}
	l.npending--
	l.readyStale = true
}

// refreshReady rebuilds the sorted ready list, in place, from the
// pid-indexed pending table. It runs only after a membership change.
func (l *runLoop) refreshReady() {
	if !l.readyStale {
		return
	}
	l.ready = l.ready[:0]
	for pid := range l.pending {
		if l.pending[pid].kind != 0 {
			l.ready = append(l.ready, pid)
		}
	}
	l.readyStale = false
}

// unwindAll kills every process that still has a pending request, so no
// body outlives the run.
func (l *runLoop) unwindAll(t transport) {
	for pid := range l.pending {
		if l.pending[pid].kind != 0 {
			l.pending[pid] = request{}
			l.npending--
			t.kill(pid)
		}
	}
	l.readyStale = true
}

func (l *runLoop) record(e Event) {
	e.Seq = l.seq
	l.seq++
	l.ev = e
	l.sink.Event(&l.ev)
}
