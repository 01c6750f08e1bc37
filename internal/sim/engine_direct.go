package sim

import "iter"

// This file implements the direct-execution engine: process bodies run on
// the run-loop goroutine instead of behind channel handshakes. It has two
// strategies, picked by pickEngine:
//
//   - inline: for run-to-completion schedulers (Solo, Sequential) the loop
//     simply calls each body in schedule order and performs every access
//     the moment the body issues it. No goroutines, no coroutines, no
//     per-event synchronisation of any kind; with a reuse Arena a whole
//     run allocates nothing.
//
//   - coroutine: for schedulers that interleave (Scripted, RoundRobin,
//     Random, the checker's replay scheduler) each body runs inside an
//     iter.Pull coroutine. A scheduled event costs one same-thread
//     coroutine switch instead of two channel handshakes through the Go
//     scheduler, which is about 4x cheaper, and all bodies still execute
//     on the run loop's goroutine, one at a time. Each process keeps one
//     coroutine for the whole run or session: it runs the body once per
//     incarnation and parks between two, so a crash and restart, or a
//     Session rewind, costs coroutine switches but starts no goroutine.
//     finish stops every coroutine, so none outlives its run or session.
//
// Both strategies reuse the shared runLoop core, so they produce traces
// identical to the goroutine engine, with one documented exception: the
// inline strategy starts a body only when the scheduler first selects it,
// so a process that is never scheduled (or a body that returns without
// issuing a single request) does not get its termination mark recorded at
// the head of the trace the way the eager goroutine/coroutine absorption
// records it. No algorithm in this repository has such a body.

// coroTransport drives bodies as same-thread coroutines via iter.Pull.
type coroTransport struct {
	coros  []coroProc
	bodies []ProcFunc // kept to rebuild a coroutine a body panic ended
	arena  *Arena
}

type coroProc struct {
	proc *Proc
	next func() (request, bool)
	stop func()
}

func newCoroTransport(bodies []ProcFunc, ar *Arena) *coroTransport {
	n := len(bodies)
	var t *coroTransport
	if ar != nil {
		t = &ar.coroT
		t.finish() // a finished session parks its coroutines until closed
		if cap(t.coros) < n {
			t.coros = make([]coroProc, n)
		} else {
			t.coros = t.coros[:n]
		}
	} else {
		t = &coroTransport{coros: make([]coroProc, n)}
	}
	t.bodies = bodies
	t.arena = ar
	for i, body := range bodies {
		if body == nil {
			t.coros[i] = coroProc{}
			continue
		}
		t.initCoro(i)
	}
	return t
}

// initCoro builds the coroutine of process i around a fresh Proc. The
// coroutine runs the body once per incarnation and parks between two by
// yielding the zero request, which start, resume and restart report as a
// returned body. It ends only when stopped, or when a body panic other
// than the run loop's unwind propagates out of it.
func (t *coroTransport) initCoro(i int) {
	n := len(t.bodies)
	body := t.bodies[i]
	var pr *Proc
	if t.arena != nil {
		pr = &t.arena.procs[i]
		*pr = Proc{id: i, n: n}
	} else {
		pr = &Proc{id: i, n: n}
	}
	c := &t.coros[i]
	c.proc = pr
	c.next, c.stop = iter.Pull(func(yield func(request) bool) {
		pr.yield = yield
		for {
			runIncarnation(body, pr)
			if pr.rerun {
				pr.rerun = false
				continue
			}
			if !yield(request{}) {
				return
			}
		}
	})
}

// runIncarnation runs one incarnation of body, recovering the unwind
// panic with which Proc.do ends a killed body.
func runIncarnation(body ProcFunc, pr *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(unwind); ok {
				return // killed by the run loop; already accounted
			}
			panic(r) // real bug in an algorithm: surface it
		}
	}()
	body(pr)
}

func (t *coroTransport) start(pid int) (request, bool) {
	req, _ := t.coros[pid].next()
	return req, req.kind != 0
}

func (t *coroTransport) resume(pid int, resp response) (request, bool) {
	c := &t.coros[pid]
	c.proc.resp = resp
	req, _ := c.next()
	return req, req.kind != 0
}

// kill unwinds the body parked at a request: Proc.do turns the kill
// response into the unwind panic, and the coroutine parks until restart.
func (t *coroTransport) kill(pid int) {
	c := &t.coros[pid]
	c.proc.resp = response{kill: true}
	c.next()
}

// restart runs pid's body again, from its parked coroutine, up to its
// first request; the previous incarnation was killed or returned.
func (t *coroTransport) restart(pid int) (request, bool) {
	req, ok, _ := t.refeed(pid, false, nil, nil)
	return req, ok
}

// refeed runs a new incarnation of pid's body — after unwinding the one
// parked at a request when kill is set — and answers, without yielding,
// each request that matches the next recorded event events[feed[i]] with
// that event's response. It returns where the body parked: at the first
// request the feed did not answer (ok), or returned (not ok); fed counts
// the events answered. The whole feed costs one coroutine switch pair.
func (t *coroTransport) refeed(pid int, kill bool, events []Event, feed []int32) (req request, ok bool, fed int) {
	c := &t.coros[pid]
	pr := c.proc
	pr.events, pr.feed = events, feed
	if kill {
		pr.resp, pr.rerun = response{kill: true}, true
	}
	req, ok = c.next()
	if !ok { // a body panic ended the coroutine: build it again
		t.initCoro(pid)
		pr = c.proc
		pr.events, pr.feed = events, feed
		req, _ = c.next()
	}
	fed = len(feed) - len(pr.feed)
	pr.events, pr.feed = nil, nil
	return req, req.kind != 0, fed
}

func (t *coroTransport) finish() {
	for i := range t.coros {
		if t.coros[i].stop != nil {
			t.coros[i].stop()
		}
	}
}

// inlineDo is Proc.do for the inline strategy: the access is scheduled by
// construction (the running process is the only ready one), so it is
// performed immediately.
func (l *runLoop) inlineDo(pid int, r request) response {
	if l.steps >= l.maxSteps {
		l.stop = StopMaxSteps
		panic(unwind{})
	}
	resp, err := l.perform(pid, r)
	if err != nil {
		l.stop = StopError
		l.inlineErr = err
		panic(unwind{})
	}
	return resp
}

// runBodyInline executes one body to completion on the current goroutine.
// It reports false if the body was unwound early (step budget exhausted or
// illegal access); the stop reason and error are already recorded.
func (l *runLoop) runBodyInline(pid int, body ProcFunc) (completed bool) {
	var pr *Proc
	if l.arena != nil {
		pr = &l.arena.procs[pid]
		*pr = Proc{id: pid, n: len(l.bodies), inl: l}
	} else {
		pr = &Proc{id: pid, n: len(l.bodies), inl: l}
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(unwind); ok {
				return // completed stays false
			}
			panic(r)
		}
	}()
	body(pr)
	return true
}

// runInlineSeq is the Sequential{} fast path: the lowest ready pid always
// steps and processes stay ready until they terminate, so each body runs
// to completion in pid order.
func (l *runLoop) runInlineSeq() error {
	for pid, body := range l.bodies {
		if body == nil {
			continue
		}
		if !l.runBodyInline(pid, body) {
			return l.inlineErr
		}
		l.record(Event{PID: pid, Kind: KindMark, Phase: PhaseDone})
	}
	l.stop = StopAllDone
	return nil
}

// runInlineSolo is the Solo{PID} fast path: only PID ever steps; the run
// stops once it terminates (StopScheduler if other processes were still
// pending, StopAllDone otherwise, matching the general loop).
func (l *runLoop) runInlineSolo(pid int) error {
	others := false
	for i, b := range l.bodies {
		if b != nil && i != pid {
			others = true
			break
		}
	}
	if pid >= 0 && pid < len(l.bodies) && l.bodies[pid] != nil {
		if !l.runBodyInline(pid, l.bodies[pid]) {
			return l.inlineErr
		}
		l.record(Event{PID: pid, Kind: KindMark, Phase: PhaseDone})
	}
	if others {
		l.stop = StopScheduler
	} else {
		l.stop = StopAllDone
	}
	return nil
}
