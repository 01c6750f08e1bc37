package sim

// Edge-case coverage for the crash/recovery model: Session.Crash and
// Session.Restart error paths, multi-cycle Crasher storms on both
// engines, and the Crashed/Done/Schedule invariants the fleet's
// violation-promotion pipeline leans on (a promoted schedule must replay
// its crash and restart entries exactly).

import (
	"errors"
	"slices"
	"testing"

	"cfc/internal/opset"
)

// counterProgram returns an n-process program where process pid
// increments a shared per-pid register once and terminates. Restarting a
// crashed process re-runs the body, so the register counts incarnations.
func counterProgram(n int) (*Memory, []ProcFunc, []Reg) {
	mem := NewMemory(opset.AtomicRegisters)
	cnt := mem.Registers("cnt", 8, n)
	procs := make([]ProcFunc, n)
	for pid := range procs {
		procs[pid] = func(p *Proc) {
			c := cnt[p.ID()]
			p.Write(c, p.Read(c)+1)
		}
	}
	return mem, procs, cnt
}

func TestSessionCrashErrorPaths(t *testing.T) {
	mem, procs, _ := counterProgram(2)
	s, err := StartSession(Config{Mem: mem, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Restart of a live process: ErrNotCrashed.
	if err := s.Restart(0); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("Restart(live) = %v, want ErrNotCrashed", err)
	}

	// Crash of an already-crashed process: its pending event is gone, so
	// the second crash reports ErrNotReady.
	if err := s.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(0); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Crash(crashed) = %v, want ErrNotReady", err)
	}

	// Crash of a finished process: same — no pending event.
	mustSteps(t, s, 1, 1) // two accesses: read, then write; body returns
	if !s.Trace().Done(1) {
		t.Fatal("process 1 should have terminated")
	}
	if err := s.Crash(1); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Crash(finished) = %v, want ErrNotReady", err)
	}

	// Restart of a finished (not crashed) process: ErrNotCrashed.
	if err := s.Restart(1); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("Restart(finished) = %v, want ErrNotCrashed", err)
	}
}

// TestSessionRestartConsumesStep pins the storm bound: a restart charges
// the step budget, so a crash/restart loop cannot extend a run forever.
func TestSessionRestartConsumesStep(t *testing.T) {
	mem, procs, _ := counterProgram(1)
	s, err := StartSession(Config{Mem: mem, Procs: procs, MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mustSteps(t, s, 0) // budget now exhausted
	if err := s.Crash(0); err != nil {
		t.Fatal(err) // crashes are free: they remove work
	}
	if err := s.Restart(0); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("Restart past budget = %v, want ErrMaxSteps", err)
	}
}

// TestSessionCrashedDoneInvariants drives one process through a full
// crash → restart → terminate cycle and checks the trace-level view at
// every stage, then replays the recorded schedule through Seek on a
// fresh program and requires the identical trace (the promotion
// pipeline's contract).
func TestSessionCrashedDoneInvariants(t *testing.T) {
	mem, procs, cnt := counterProgram(2)
	s, err := StartSession(Config{Mem: mem, Procs: procs, MaxSteps: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// pid 0: read, crash mid-body, restart, run to completion.
	mustSteps(t, s, 0)
	if err := s.Crash(0); err != nil {
		t.Fatal(err)
	}
	if tr := s.Trace(); !tr.Crashed(0) || tr.Done(0) {
		t.Fatalf("after crash: Crashed=%v Done=%v, want true/false", tr.Crashed(0), tr.Done(0))
	}
	if err := s.Restart(0); err != nil {
		t.Fatal(err)
	}
	if tr := s.Trace(); tr.Crashed(0) || tr.Done(0) {
		t.Fatalf("after restart: Crashed=%v Done=%v, want false/false", tr.Crashed(0), tr.Done(0))
	}
	mustSteps(t, s, 0, 0, 1, 1)
	tr := s.Trace()
	if tr.Crashed(0) || !tr.Done(0) || !tr.Done(1) {
		t.Fatalf("after completion: Crashed(0)=%v Done(0)=%v Done(1)=%v", tr.Crashed(0), tr.Done(0), tr.Done(1))
	}
	if got := tr.Restarts(0); got != 1 {
		t.Fatalf("Restarts(0) = %d, want 1", got)
	}
	// The restarted incarnation re-ran the body against surviving memory:
	// its first incarnation read 0 and crashed before writing, so the
	// counter ends at 1.
	if got := mem.Value(cnt[0]); got != 1 {
		t.Fatalf("cnt[0] = %d, want 1", got)
	}

	// Schedule round-trip: Trace.Schedule must equal the decision stack,
	// and replaying it on a fresh program must reproduce the trace.
	sched := tr.Schedule()
	if !slices.Equal(sched, s.Decisions()) {
		t.Fatalf("Trace.Schedule() = %v, Decisions() = %v", sched, s.Decisions())
	}
	want := slices.Clone(tr.Events)

	mem2, procs2, _ := counterProgram(2)
	s2, err := StartSession(Config{Mem: mem2, Procs: procs2, MaxSteps: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Seek(sched); err != nil {
		t.Fatalf("Seek(%v): %v", sched, err)
	}
	if !slices.Equal(s2.Trace().Events, want) {
		t.Fatalf("replayed trace differs:\n got %v\nwant %v", s2.Trace().Events, want)
	}
	if tr2 := s2.Trace(); tr2.Crashed(0) || !tr2.Done(0) {
		t.Fatalf("replay invariants: Crashed(0)=%v Done(0)=%v", tr2.Crashed(0), tr2.Done(0))
	}
}

// TestSessionSeekRevivesCrashedProcess rewinds a session to before a
// crash and checks the process is live again — Seek across a crash entry
// moves the crashed process, so the rewind starts its body afresh and
// re-feeds it the step it took before the crash.
func TestSessionSeekRevivesCrashedProcess(t *testing.T) {
	mem, procs, _ := counterProgram(2)
	s, err := StartSession(Config{Mem: mem, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mustSteps(t, s, 0)
	if err := s.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Seek([]int{StepEntry(0)}); err != nil {
		t.Fatal(err)
	}
	if s.Trace().Crashed(0) {
		t.Fatal("process 0 should be live after seeking to before its crash")
	}
	// And it can take its remaining steps.
	mustSteps(t, s, 0)
	if !s.Trace().Done(0) {
		t.Fatal("process 0 should terminate after revival")
	}
}

// TestCrasherMultiCycleBothEngines runs a multi-window crash/recovery
// storm — two crash/restart cycles on pid 0, one crash-stop on pid 1 —
// under both engines and requires identical traces: the storm machinery
// must not depend on which engine executes the bodies.
func TestCrasherMultiCycleBothEngines(t *testing.T) {
	windows := map[int][]CrashWindow{
		0: {{Crash: 2, Restart: 4}, {Crash: 6, Restart: 8}},
		1: {{Crash: 3, Restart: -1}},
	}
	run := func(engine Engine) *Trace {
		t.Helper()
		mem, procs, _ := counterProgram(3)
		res, err := Run(Config{
			Mem: mem, Procs: procs, MaxSteps: 64, Engine: engine,
			Sched: &Crasher{Inner: &RoundRobin{}, Windows: windows},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Trace
	}
	direct := run(EngineDirect)
	goroutine := run(EngineGoroutine)
	if !slices.Equal(direct.Events, goroutine.Events) {
		t.Fatalf("engines diverge under storm:\n direct    %v\n goroutine %v", direct.Events, goroutine.Events)
	}

	// The storm actually happened: two restarts of pid 0, final crash of
	// pid 1, and the survivors terminated.
	if got := direct.Restarts(0); got != 2 {
		t.Fatalf("Restarts(0) = %d, want 2", got)
	}
	if !direct.Crashed(1) {
		t.Fatal("pid 1 should be crash-stopped")
	}
	if !direct.Done(0) || !direct.Done(2) {
		t.Fatalf("survivors should terminate: Done(0)=%v Done(2)=%v", direct.Done(0), direct.Done(2))
	}

	// And the whole storm replays: Schedule → Seek → identical events.
	sched := direct.Schedule()
	mem, procs, _ := counterProgram(3)
	s, err := StartSession(Config{Mem: mem, Procs: procs, MaxSteps: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Seek(sched); err != nil {
		t.Fatalf("storm schedule does not replay: %v", err)
	}
	if !slices.Equal(s.Trace().Events, direct.Events) {
		t.Fatal("replayed storm trace differs from the original")
	}
}
