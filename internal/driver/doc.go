// Package driver wraps algorithm instances into simulator process bodies
// that follow the phase-marking protocol package metrics expects, and
// provides the standard run shapes used throughout the experiments:
// contention-free (solo) runs, sequential runs, and contended runs under
// arbitrary schedulers.
//
// MutexBody brackets Lock/Unlock with PhaseTry/PhaseCS/PhaseExit/
// PhaseRemainder marks, which is how the trace-level measures (package
// metrics) find attempt boundaries, and how the model checker's
// mutual-exclusion property observes who is inside a critical section.
// TaskBody wraps a one-shot task (contention detector, naming algorithm)
// whose decision is recorded with Proc.Output.
//
// The bodies are deterministic functions of the values their accesses
// return and keep no state between runs, so the same body value can be
// replayed across thousands of schedules — the model checker relies on
// exactly this, both in its serial explorer (one program instance
// replayed over one arena) and in the DPOR engine's stage pass (one
// instance per worker, built by calling the Builder again rather than
// by sharing).
//
// The run shapes choose engines implicitly through the scheduler: solo
// and sequential runs use run-to-completion schedulers, which the
// simulator executes on its inline direct engine (allocation-free with a
// reuse arena); contended runs under interleaving deterministic
// schedulers use the coroutine direct engine. See the package sim
// comment for the engine model.
package driver
