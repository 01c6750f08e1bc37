package sim

import (
	"errors"
	"fmt"
)

// Session errors.
var (
	// ErrNotReady reports a Step/Crash of a process with no pending event.
	ErrNotReady = errors.New("sim: process has no pending event")
	// ErrSessionClosed reports a Step/Crash on a closed session.
	ErrSessionClosed = errors.New("sim: session closed")
	// ErrMaxSteps reports a Step beyond the session's step budget.
	ErrMaxSteps = errors.New("sim: step budget exhausted")
	// ErrNotCrashed reports a Restart of a process that is not crashed.
	ErrNotCrashed = errors.New("sim: process is not crashed")
	// ErrDiverged reports that a process body re-fed during a rewind did
	// not reproduce its recorded run: the body is not a deterministic
	// function of its responses (it reads state outside the simulated
	// memory).
	ErrDiverged = errors.New("sim: process body diverged from its recorded run")
)

// Schedule-entry encoding, shared by Session.Decisions, Seek/replay, the
// model checker's schedules and Trace.Schedule: entry pid encodes a Step
// of pid, entry -pid-1 a Crash of pid, and entry restartEntryBase+pid a
// Restart of pid. Pids are far below restartEntryBase, so the three
// ranges are disjoint.
const restartEntryBase = 1 << 30

// StepEntry encodes a Step of pid as a schedule entry.
func StepEntry(pid int) int { return pid }

// CrashEntry encodes a Crash of pid as a schedule entry.
func CrashEntry(pid int) int { return -pid - 1 }

// RestartEntry encodes a Restart of pid as a schedule entry.
func RestartEntry(pid int) int { return restartEntryBase + pid }

// DecodeEntry returns the action and pid a schedule entry encodes.
func DecodeEntry(e int) (Action, int) {
	switch {
	case e < 0:
		return ActCrash, -e - 1
	case e >= restartEntryBase:
		return ActRestart, e - restartEntryBase
	default:
		return ActStep, e
	}
}

// Session is an incrementally driven run: where Run asks a Scheduler for
// every decision and plays the run to its end, a session hands the
// schedule to the caller one decision at a time and stays suspended in
// between, with every process body parked at its pending event. Callers
// that explore many schedules sharing prefixes — the model checker's DFS
// extends the current prefix by one event for the first branch of every
// node — step a live session instead of replaying the prefix from
// scratch.
//
// # Checkpointed decision stack
//
// A session records every decision it performs (Step, Crash and Restart)
// on a decision stack, readable through Decisions. The stack is a
// checkpoint of the whole run: process bodies are deterministic functions
// of the values their shared-memory operations return, so replaying the
// stack against a fresh copy of the program reproduces the session state
// exactly. Three primitives build on it:
//
//   - TruncateTo(k) rewinds the session to its first k decisions;
//   - Seek(schedule) positions the session at an arbitrary decision
//     prefix, extending the live run in place when the current stack is
//     a prefix of the target and rewinding to the common prefix first
//     otherwise;
//   - Fork(cfg) starts an independent session, over a separately built
//     copy of the program, replayed to the same decision stack.
//
// # Rewinding by process
//
// Bodies are Go coroutines and cannot run backwards, but each body is a
// deterministic function of its own responses, so only the bodies that
// acted after the rewind point need to run again. A rewind to decision k
// keeps every body not named in the discarded decisions parked where it
// is, cuts the trace back to the events before decision k, writes back
// the cell values the discarded decisions overwrote, and runs each moved
// body again on the coroutine it already has. Its kept events go to it
// in one resume, split only at its kept crashes: each request the body
// issues is checked against its next recorded event and answered with
// that event's response without leaving the coroutine. A body that does
// not reproduce its run closes the session with ErrDiverged. A rewind
// therefore costs the moved processes' kept steps and one coroutine
// switch pair per moved process, and starts no goroutine; extending — the
// common case in depth-first exploration — costs only the new decisions.
// Executed counts what positioning cost, in decisions.
//
// Sessions always execute on the direct engine (bodies run as
// same-thread coroutines); Config.Sched and Config.Engine are ignored.
// A session must be Closed when abandoned, even once every process has
// terminated (or crashed) and the session has finished: its coroutines
// stay parked until then, so that a finished run can still be rewound.
// A closed (or errored) session is not dead:
// TruncateTo and Seek revive it by restarting the program and replaying
// the target from the root.
type Session struct {
	cfg       Config
	loop      *runLoop
	tr        *coroTransport
	decisions []int
	undo      []undo    // one per decision: what a rewind past it restores
	pev       [][]int32 // per process: the trace indices of its events
	executed  int       // decisions performed plus decisions re-fed by rewinds
	moved     []bool    // rewind scratch: named in a discarded decision
	finished  bool
	closed    bool
	err       error
}

// undo is what a rewind past one decision restores: the trace length and
// the scheduled steps before it and, for an access step, the accessed
// cell's whole value before it (cell is -1 for crashes, restarts and
// steps that access no cell).
type undo struct {
	ev, steps int
	cell      int
	old       uint64
}

// StartSession validates cfg, resets the memory and runs every process
// body up to its first pending event. Config.Reuse recycles the session,
// trace and coroutine scratch exactly as it does for Run (the previous
// session of the arena must be closed or finished; a finished one's
// parked coroutines are ended here).
func StartSession(cfg Config) (*Session, error) {
	loop, _, err := setupRun(cfg)
	if err != nil {
		return nil, err
	}
	if loop.buf == nil {
		return nil, fmt.Errorf("sim: sessions require a buffering sink (Config.Sink must be nil or a *TraceSink)")
	}
	var s *Session
	if cfg.Reuse != nil {
		s = &cfg.Reuse.session
	} else {
		s = new(Session)
	}
	t := newCoroTransport(cfg.Procs, cfg.Reuse)
	*s = Session{cfg: cfg, loop: loop, tr: t,
		decisions: s.decisions[:0], undo: s.undo[:0], pev: s.pev, moved: s.moved}
	s.resetEvents()
	loop.absorb(t)
	s.finished = loop.npending == 0
	return s, nil
}

// resetEvents empties the per-process event index, keeping its buffers.
func (s *Session) resetEvents() {
	if n := len(s.cfg.Procs); cap(s.pev) < n {
		s.pev = make([][]int32, n)
	} else {
		s.pev = s.pev[:n]
	}
	for p := range s.pev {
		s.pev[p] = s.pev[p][:0]
	}
}

// Ready returns the sorted pids with a pending event. The slice is valid
// until the next Step/Crash/Close and must not be modified.
func (s *Session) Ready() []int {
	s.loop.refreshReady()
	return s.loop.ready
}

// Finished reports whether every started process has terminated or
// crashed (the run cannot be extended further).
func (s *Session) Finished() bool { return s.finished }

// Err returns the access error that aborted the session, if any.
func (s *Session) Err() error { return s.err }

// Decisions returns the session's decision stack: one entry per performed
// decision, in order, in the schedule-entry encoding (StepEntry,
// CrashEntry, RestartEntry — the model checker's schedules). The slice
// aliases session state — it is valid until the next Step, Crash,
// TruncateTo or Seek and must not be modified; copy it to retain it.
func (s *Session) Decisions() []int { return s.decisions }

// Depth returns the number of decisions performed, len(Decisions()).
func (s *Session) Depth() int { return len(s.decisions) }

// EventsBefore returns the trace length before decision k of the stack,
// for 0 <= k <= Depth(); k == Depth() gives the current trace length. It
// is the cut a rewind to k keeps: a Seek whose schedule first differs
// from the stack at decision k leaves the trace's first EventsBefore(k)
// events untouched, so state derived from them event by event survives
// the Seek.
func (s *Session) EventsBefore(k int) int {
	if k < len(s.undo) {
		return s.undo[k].ev
	}
	return len(s.loop.buf.tr.Events)
}

// Values returns the live memory's cell values, in declaration order,
// as of the session's current position. The slice aliases session state
// — it is valid until the next Step, Crash, Restart, TruncateTo or Seek
// and must not be modified.
func (s *Session) Values() []uint64 { return s.loop.mem.vals }

// Executed returns how many decisions the session has executed since it
// started: every decision performed — by Step, Crash and Restart, or by
// Seek, TruncateTo and revival replaying a schedule — plus every decision
// a rewind re-fed to a moved process. The difference across a Seek is
// what positioning the session cost.
func (s *Session) Executed() int { return s.executed }

// Step performs the pending event of pid, exactly as if a scheduler had
// picked it, and runs the body to its next pending event. It reports
// ErrNotReady if pid has no pending event, ErrMaxSteps past the budget,
// and the access error if the event was illegal (the session is then
// closed with a StopError trace, like an aborted Run).
func (s *Session) Step(pid int) error { return s.apply(pid, false) }

// Crash injects a stopping failure into pid: its pending event is
// discarded and it takes no further steps unless revived with Restart.
func (s *Session) Crash(pid int) error { return s.apply(pid, true) }

// Restart revives crashed process pid: its body is re-run from the
// beginning, against the surviving shared memory, up to its first pending
// event. It reports ErrNotCrashed if pid is not currently crashed and
// ErrMaxSteps past the budget (a restart consumes a scheduling step, so
// crash/restart storms stay bounded).
func (s *Session) Restart(pid int) error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.err != nil {
		return s.err
	}
	l := s.loop
	if !l.isCrashed(pid) {
		return fmt.Errorf("sim: session: process %d: %w", pid, ErrNotCrashed)
	}
	if l.steps >= l.maxSteps {
		return ErrMaxSteps
	}
	u := undo{ev: l.seq, steps: l.steps, cell: -1}
	l.restartCrashed(pid, s.tr)
	s.push(RestartEntry(pid), pid, u)
	s.finished = l.npending == 0
	return nil
}

func (s *Session) apply(pid int, crash bool) error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.err != nil {
		return s.err
	}
	l := s.loop
	if !l.isPending(pid) {
		return fmt.Errorf("sim: session: process %d: %w", pid, ErrNotReady)
	}
	u := undo{ev: l.seq, steps: l.steps, cell: -1}
	if crash {
		l.crashProc(pid, s.tr)
		s.push(CrashEntry(pid), pid, u)
	} else {
		if l.steps >= l.maxSteps {
			return ErrMaxSteps
		}
		if req := l.pending[pid]; req.kind == reqAccess {
			u.cell = int(req.reg.cell)
			u.old = l.mem.vals[u.cell]
		}
		if err := l.stepReady(pid, s.tr); err != nil {
			l.stop = StopError
			l.readyStale = true
			s.err = err
			s.tr.kill(pid)
			s.close()
			return err
		}
		s.push(StepEntry(pid), pid, u)
	}
	s.finished = l.npending == 0
	return nil
}

// push records performed decision d of process pid with what a rewind
// past it restores, and indexes the events it recorded, which are all
// pid's (from u.ev on).
func (s *Session) push(d, pid int, u undo) {
	s.decisions = append(s.decisions, d)
	s.undo = append(s.undo, u)
	for e := u.ev; e < s.loop.seq; e++ {
		s.pev[pid] = append(s.pev[pid], int32(e))
	}
	s.executed++
}

// TruncateTo rewinds the session so that exactly the first k entries of
// the decision stack are applied; the rest of the stack is discarded. It
// is Seek(Decisions()[:k]) after a bounds check: on a live session only
// the processes named in the discarded entries run again (see Rewinding
// by process), and TruncateTo(len(Decisions())) is a no-op; a closed or
// errored session is revived by replaying the kept prefix from the root.
// An error during the replay (which can only mean the program is not
// deterministic, or the step budget changed) is returned.
func (s *Session) TruncateTo(k int) error {
	if k < 0 || k > len(s.decisions) {
		return fmt.Errorf("sim: session: truncate to %d of %d decisions", k, len(s.decisions))
	}
	return s.Seek(s.decisions[:k])
}

// Seek positions the session at the given decision prefix: after a
// successful Seek, Decisions() equals schedule. The live run is first
// rewound to the longest common prefix of its stack and schedule — a
// no-op when the stack is a prefix of schedule, which is the sharing the
// model checker's depth-first exploration relies on — and then extended
// by the missing decisions. A closed or errored session has no parked
// bodies to keep, so it restarts the program and replays schedule from
// the root. The schedule uses the Decisions encoding (StepEntry,
// CrashEntry, RestartEntry) and may alias Decisions().
func (s *Session) Seek(schedule []int) error {
	if s.closed || s.err != nil {
		if err := s.restart(); err != nil {
			return err
		}
		return s.replay(schedule)
	}
	lcp := 0
	for lcp < len(schedule) && lcp < len(s.decisions) && s.decisions[lcp] == schedule[lcp] {
		lcp++
	}
	if lcp < len(s.decisions) {
		if err := s.rewind(lcp); err != nil {
			return err
		}
	}
	return s.replay(schedule[lcp:])
}

// rewind positions a live session at its first k decisions, k below the
// stack depth, without restarting the program (see Rewinding by
// process). Each moved body is re-fed on its own, from its own recorded
// responses — the order across processes does not matter — and a body
// that diverges from its kept events, or that is not where its first
// discarded event found it, closes the session with ErrDiverged.
func (s *Session) rewind(k int) error {
	l := s.loop
	events := l.buf.tr.Events
	cut := s.undo[k].ev
	n := len(l.pending)
	if cap(s.moved) < n {
		s.moved = make([]bool, n)
	}
	moved := s.moved[:n]
	clear(moved)
	for _, d := range s.decisions[k:] {
		_, p := DecodeEntry(d)
		moved[p] = true
	}
	var err error
	for p := 0; p < n && err == nil; p++ {
		if !moved[p] {
			continue
		}
		// Every event from the cut on belongs to a moved process, and
		// each moved process has at least one.
		pev := s.pev[p]
		m := len(pev)
		for m > 0 && int(pev[m-1]) >= cut {
			m--
		}
		s.pev[p] = pev[:m]
		err = s.refeedProc(p, pev[:m], &events[pev[m]])
	}

	for i := len(s.undo) - 1; i >= k; i-- {
		if u := &s.undo[i]; u.cell >= 0 {
			l.mem.vals[u.cell] = u.old
		}
	}
	l.buf.tr.Events = events[:cut]
	l.seq, l.steps = cut, s.undo[k].steps
	s.decisions, s.undo = s.decisions[:k], s.undo[:k]
	l.readyStale = true
	if err != nil {
		l.stop = StopError
		s.err = err
		s.close()
		return err
	}
	s.finished = l.npending == 0
	return nil
}

// refeedProc runs moved process p again through its kept events (trace
// indices kept, in order) and checks it then stands where next, its first
// discarded event, found it. The kept events go to the body in segments
// split at its crashes, one resume each: a crash finds the body parked at
// a request and, if a restart follows, the next resume unwinds it and
// runs it again.
func (s *Session) refeedProc(p int, kept []int32, next *Event) error {
	l := s.loop
	events := l.buf.tr.Events
	kill := l.pending[p].kind != 0
	if kill {
		l.pending[p] = request{}
		l.npending--
	}
	if l.crashed[p] {
		l.crashed[p] = false
		l.ncrashed--
	}
	for {
		req, ok, fed := s.tr.refeed(p, kill, events, kept)
		s.executed += fed
		kept = kept[fed:]
		if !ok {
			break
		}
		if len(kept) == 0 || events[kept[0]].Kind != KindCrash {
			l.setPending(p, req)
			break
		}
		// A kept crash found the body parked at a request.
		s.executed++
		if len(kept) == 1 { // crashed at the cut
			s.tr.kill(p)
			l.crashed[p] = true
			l.ncrashed++
			kept = nil
			break
		}
		// kept[1] is p's restart: the next resume unwinds the body and
		// runs it again.
		s.executed++
		kept = kept[2:]
		kill = true
	}
	if len(kept) > 0 { // the body issued another request, or returned
		return s.expect(p, &events[kept[0]])
	}
	return s.expect(p, next)
}

// expect verifies that re-fed body p stands where recorded event e found
// it: parked at e's request (a step), parked (a crash) or crashed (a
// restart).
func (s *Session) expect(p int, e *Event) error {
	l := s.loop
	var got string
	switch e.Kind {
	case KindCrash:
		if l.pending[p].kind != 0 {
			return nil
		}
		got = "has no pending event"
	case KindRestart:
		if l.crashed[p] {
			return nil
		}
		got = "is not crashed"
	default:
		if requestMatches(l.pending[p], e) {
			return nil
		}
		got = "issued " + requestString(p, e.Seq, l.pending[p])
	}
	return fmt.Errorf("sim: session: rewind: process %d: %w: recorded %v, re-fed body %s", p, ErrDiverged, *e, got)
}

// requestMatches reports whether performing req records e: same kind and
// the same operation, cell, view and argument, phase or output.
func requestMatches(req request, e *Event) bool {
	switch req.kind {
	case reqAccess:
		return e.Kind == KindAccess && e.Op == req.op && e.Cell == req.reg.cell &&
			e.Shift == req.reg.shift && e.Width == req.reg.width && e.Arg == req.arg
	case reqLocal:
		return e.Kind == KindLocal
	case reqMark:
		return e.Kind == KindMark && e.Phase == req.phase
	case reqOutput:
		return e.Kind == KindOutput && e.Out == req.out
	default:
		return false
	}
}

// requestString describes p's parked request as the event performing it
// at position seq would record, for divergence errors.
func requestString(p, seq int, req request) string {
	if req.kind == 0 {
		return "nothing"
	}
	po := pendingOpOf(p, req)
	e := Event{Seq: seq, PID: p, Kind: po.Kind, Op: po.Op, Cell: po.Cell, Shift: po.Shift,
		Width: po.Width, Arg: po.Arg, Phase: po.Phase, Out: po.Out}
	return e.String()
}

// Fork starts an independent session positioned at the same decision
// stack as s. Coroutine state cannot be duplicated, so the caller
// provides a separately built copy of the program in cfg (fresh Memory
// and ProcFuncs — typically a second call of the same builder; the
// program must be deterministic and structurally identical). cfg.Mem and
// cfg.Reuse must not be shared with the parent: a session owns its memory
// and arena. Forking at depth 0 is an ordinary StartSession of cfg.
func (s *Session) Fork(cfg Config) (*Session, error) {
	if cfg.Mem != nil && cfg.Mem == s.cfg.Mem {
		return nil, fmt.Errorf("sim: session: fork must not share the parent's memory")
	}
	if cfg.Reuse != nil && cfg.Reuse == s.cfg.Reuse {
		return nil, fmt.Errorf("sim: session: fork must not share the parent's arena")
	}
	if len(cfg.Procs) != len(s.cfg.Procs) {
		return nil, fmt.Errorf("sim: session: fork program has %d processes, parent has %d",
			len(cfg.Procs), len(s.cfg.Procs))
	}
	s2, err := StartSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := s2.replay(s.decisions); err != nil {
		s2.Close()
		return nil, fmt.Errorf("sim: session: fork replay: %w", err)
	}
	return s2, nil
}

// restart rebuilds the session at the initial state: unwinds any live
// bodies, resets the memory and re-runs every body to its first pending
// event, clearing the decision stack (whose backing array a schedule
// being replayed may alias: replay reads each entry before re-appending
// it).
func (s *Session) restart() error {
	if !s.closed {
		s.loop.unwindAll(s.tr)
		s.tr.finish()
		s.closed = true
	}
	loop, _, err := setupRun(s.cfg)
	if err != nil {
		return err
	}
	t := newCoroTransport(s.cfg.Procs, s.cfg.Reuse)
	s.loop, s.tr = loop, t
	s.err = nil
	s.closed = false
	s.decisions, s.undo = s.decisions[:0], s.undo[:0]
	s.resetEvents()
	loop.absorb(t)
	s.finished = loop.npending == 0
	return nil
}

// replay applies a decision sequence (Decisions encoding). Aliasing the
// decision stack is fine, since entry i is read before it is re-appended.
func (s *Session) replay(schedule []int) error {
	for _, d := range schedule {
		var err error
		switch act, pid := DecodeEntry(d); act {
		case ActCrash:
			err = s.Crash(pid)
		case ActRestart:
			err = s.Restart(pid)
		default:
			err = s.Step(pid)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Trace returns the run-so-far. Its Stop reason reads as the run the
// session has produced: StopAllDone once every process terminated,
// StopError after an illegal access, and StopScheduler otherwise (the
// caller, playing the scheduler, has stopped here — for now or for
// good). The trace is live: later Steps append to it, and with an arena
// it is recycled by the arena's next run.
func (s *Session) Trace() *Trace {
	tr := s.loop.buf.tr
	switch {
	case s.err != nil:
		tr.Stop = StopError
	case s.finished:
		tr.Stop = StopAllDone
	default:
		tr.Stop = StopScheduler
	}
	tr.ScheduledSteps = s.loop.steps
	return tr
}

// Close unwinds every process still suspended at a pending event and ends
// the session's coroutines. It is idempotent and must be called before
// abandoning a session, finished or not.
// Close does not erase the decision stack: a closed session can be
// revived with TruncateTo or Seek.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.close()
}

func (s *Session) close() {
	s.closed = true
	s.loop.unwindAll(s.tr)
	s.tr.finish()
}
