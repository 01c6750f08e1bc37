// Package sim is an executable version of the formal model of Alur &
// Taubenfeld (Information and Computation 126, 1996, Section 2.2): an
// asynchronous shared-memory system in which processes are state machines
// and a run is an alternating sequence of global states and events, where
// each event is one atomic access to a shared register (or an internal
// step) by one process.
//
// The simulator is a lock-step interpreter: process bodies run as ordinary
// Go functions, but every shared-memory access blocks until a pluggable
// Scheduler selects that process to perform its next atomic event. Exactly
// one process performs one event at a time and all memory mutation happens
// in the run loop, so every run is deterministic given the scheduler, and
// the produced Trace is a faithful record of the interleaving. Complexity
// measures (step and register complexity, worst-case and contention-free)
// are computed from traces by package metrics.
//
// # Execution engines
//
// Two engines realise that semantics, selected per run by Config.Engine
// (EngineAuto by default):
//
//   - The goroutine engine runs each body on its own goroutine; every
//     scheduled event costs two unbuffered-channel handshakes through the
//     Go scheduler (~500ns). It makes no assumption about the Scheduler,
//     so it is the fallback for schedulers the simulator cannot prove
//     deterministic — e.g. a user Func consulting wall-clock time.
//
//   - The direct engine runs bodies on the run-loop goroutine itself. For
//     run-to-completion schedulers (Solo, Sequential — every
//     contention-free measurement and the Theorem 5/7 sequential
//     adversaries) bodies are simply called inline and each access is
//     performed the moment it is issued: no goroutines, no channels, no
//     per-event synchronisation, and with a reuse Arena the whole run
//     loop allocates nothing. For deterministic schedulers that
//     interleave (Scripted, RoundRobin, Random, the model checker's
//     replay scheduler) bodies run as same-thread coroutines (iter.Pull),
//     one cheap coroutine switch per event. A process keeps its
//     coroutine for the whole run or session, across crashes, restarts
//     and Session rewinds, and parks it between body incarnations.
//
// Both engines drive the same run-loop core, mutate memory in the same
// single place and produce identical traces; an engine only changes how
// control moves between the loop and a body. The goroutine engine pools
// its worker goroutines process-wide, so sweeps of many short runs pay
// the goroutine start-up cost once per pooled worker, not once per
// run × process.
//
// # Event sinks
//
// The run loop does not retain events itself: it delivers each one,
// through a pointer to a reusable scratch Event, to the run's Sink —
// Begin once, Event per event in Seq order, End exactly once on every
// exit path (the precise contract, including the crash/restart events
// and the Session exception, is documented on the Sink type). The
// default sink is a TraceSink, which buffers the familiar Trace;
// StreamSink adapts closures, FanoutSink composes sinks, DiscardSink
// measures the bare engine, and package metrics provides online
// estimator and safety-monitor sinks. Because the scratch event is
// reused, a streaming consumer adds zero allocations per event — on the
// direct engine's solo fast path the entire run loop allocates nothing
// — and observation-only sweeps (the fleet, the starvation adversary)
// run in memory independent of run count and length. Trace.Feed replays
// a buffered trace through a sink, so trace-based and streaming
// consumers stay differentially comparable. EngineAuto selects the
// direct engine whenever the scheduler implements DeterministicScheduler
// (all built-in schedulers do), and the goroutine engine otherwise. The
// marker is a promise about the scheduler — decisions are a pure function
// of the observed ready sets and step numbers — and custom schedulers
// that keep the promise opt in by implementing the never-called
// DeterministicSchedule method.
//
// # Sessions: replay and checkpointing
//
// Run plays a whole run; Session hands the schedule to the caller one
// decision at a time, with every process body suspended at its pending
// event in between. A session records the decisions it performs on a
// decision stack, which — because bodies are deterministic functions of
// the values their accesses return — is a complete checkpoint of the
// run: replaying the stack against a fresh copy of the program
// reproduces the state. Session.Seek positions a session at an arbitrary
// decision prefix, extending the live run in place when the target has
// the current stack as a prefix and rewinding to the common prefix
// otherwise; Session.TruncateTo rewinds to a prefix of the stack, and
// Session.Fork starts an independent session, over a separately built
// program copy, at the same checkpoint. The model checker (package
// check) is the driving client: its depth-first exploration makes
// consecutive targets share long prefixes, so nearly every Seek is a
// single-decision extension, and its DPOR stage pass gives each worker
// a private session that Seeks from one wave task's schedule to the
// next.
//
// A rewind relies on determinism per process, not just per program:
// each body must be a function of its own responses alone, with no
// state shared outside the simulated memory (a closure counter, a
// package variable, the clock). The rewind then re-runs only the
// processes named in the discarded decisions, each on its own coroutine
// and in any order, while every other body stays parked. A moved body
// gets its kept events in one resume, split only at its recorded
// crashes: each request it issues is answered inside its coroutine from
// the recorded response, without switching back to the session. Memory
// is restored from one undo word per discarded decision. A rewind therefore costs the moved processes'
// kept steps and one coroutine switch pair per moved process, not the
// whole prefix, and starts no goroutine. Each re-fed request is checked
// against its recorded event, so a body that breaks the contract makes
// the rewind fail with ErrDiverged instead of silently producing a
// different run.
//
// Session.PendingOps exposes the suspended processes' next requests —
// operation, register footprint, written argument — before any of them
// commits. This is the observation window the checker's partial-order
// reduction needs: deciding whether two processes' next steps commute
// (opset.Independent over their footprints) requires seeing the steps
// before choosing which to schedule. Mark, Output and Local steps
// carry no footprint; PendingOp.TouchesShared classifies them as
// shared-memory-invisible.
//
// Concurrency contract: a Memory, an Arena and a Session belong to one
// run at a time and are confined to one goroutine; parallel callers hold
// one of each per worker (the simulator itself never shares mutable
// state between runs).
package sim
