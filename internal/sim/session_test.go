package sim

// Edge-case coverage for the Session checkpointing primitives
// (Decisions, TruncateTo, Seek, Fork). These paths are load-bearing for
// the model checker, whose DPOR stage pass positions per-worker
// sessions at arbitrary wave-task schedules.

import (
	"errors"
	"slices"
	"testing"

	"cfc/internal/opset"
)

// testProgram returns a fresh two-process program whose event values
// distinguish both the process and its progress: process pid writes
// 10*pid+round and reads it back, twice.
func testProgram() (*Memory, []ProcFunc, Reg) {
	mem := NewMemory(opset.AtomicRegisters)
	x := mem.Register("x", 8)
	body := func(p *Proc) {
		for round := 1; round <= 2; round++ {
			p.Write(x, uint64(10*p.ID()+round))
			p.Read(x)
		}
	}
	return mem, []ProcFunc{body, body}, x
}

func startTestSession(t *testing.T) *Session {
	t.Helper()
	mem, procs, _ := testProgram()
	s, err := StartSession(Config{Mem: mem, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// eventsSnapshot copies the session's trace events (the trace is live).
func eventsSnapshot(s *Session) []Event {
	return slices.Clone(s.Trace().Events)
}

func mustSteps(t *testing.T, s *Session, schedule ...int) {
	t.Helper()
	for _, d := range schedule {
		var err error
		if d < 0 {
			err = s.Crash(-d - 1)
		} else {
			err = s.Step(d)
		}
		if err != nil {
			t.Fatalf("apply %d (of %v): %v", d, schedule, err)
		}
	}
}

func TestSessionDecisionsRecorded(t *testing.T) {
	s := startTestSession(t)
	defer s.Close()
	mustSteps(t, s, 0, 1, 0)
	if err := s.Crash(1); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, -2}
	if !slices.Equal(s.Decisions(), want) {
		t.Fatalf("Decisions() = %v, want %v", s.Decisions(), want)
	}
	if s.Depth() != 4 {
		t.Fatalf("Depth() = %d, want 4", s.Depth())
	}
}

func TestSessionForkAtDepthZero(t *testing.T) {
	s := startTestSession(t)
	defer s.Close()

	mem2, procs2, _ := testProgram()
	f, err := s.Fork(Config{Mem: mem2, Procs: procs2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Depth() != 0 {
		t.Fatalf("fork depth = %d, want 0", f.Depth())
	}
	if !slices.Equal(f.Ready(), s.Ready()) {
		t.Fatalf("fork ready %v != parent ready %v", f.Ready(), s.Ready())
	}
	// The fork is independent: stepping it must not move the parent.
	mustSteps(t, f, 1, 1)
	if s.Depth() != 0 {
		t.Fatalf("parent moved to depth %d after stepping the fork", s.Depth())
	}
}

func TestSessionForkMidRunProducesIdenticalTrace(t *testing.T) {
	s := startTestSession(t)
	defer s.Close()
	mustSteps(t, s, 0, 0, 1, -1) // two steps of p0, one of p1, crash p0

	mem2, procs2, _ := testProgram()
	f, err := s.Fork(Config{Mem: mem2, Procs: procs2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !slices.Equal(f.Decisions(), s.Decisions()) {
		t.Fatalf("fork decisions %v != parent %v", f.Decisions(), s.Decisions())
	}
	if !slices.Equal(eventsSnapshot(f), eventsSnapshot(s)) {
		t.Fatalf("fork trace diverges:\n%v\nvs parent:\n%v", eventsSnapshot(f), eventsSnapshot(s))
	}
	// Extending both identically keeps them identical.
	mustSteps(t, s, 1, 1, 1)
	mustSteps(t, f, 1, 1, 1)
	if !slices.Equal(eventsSnapshot(f), eventsSnapshot(s)) {
		t.Fatal("fork trace diverges after identical extension")
	}
	if !s.Finished() || !f.Finished() {
		t.Fatalf("both runs should have finished (parent %v, fork %v)", s.Finished(), f.Finished())
	}
}

func TestSessionForkRejectsSharedState(t *testing.T) {
	mem, procs, _ := testProgram()
	ar := NewArena()
	s, err := StartSession(Config{Mem: mem, Procs: procs, Reuse: ar})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Fork(Config{Mem: mem, Procs: procs}); err == nil {
		t.Error("fork sharing the parent's memory must be rejected")
	}
	mem2, procs2, _ := testProgram()
	if _, err := s.Fork(Config{Mem: mem2, Procs: procs2, Reuse: ar}); err == nil {
		t.Error("fork sharing the parent's arena must be rejected")
	}
	if _, err := s.Fork(Config{Mem: mem2, Procs: procs2[:1]}); err == nil {
		t.Error("fork with a different process count must be rejected")
	}
}

func TestSessionTruncatePastCrash(t *testing.T) {
	s := startTestSession(t)
	defer s.Close()
	mustSteps(t, s, 0, -2, 0) // p0 steps, p1 crashes, p0 steps again

	// Rewind to before the crash: p1 must be live again.
	if err := s.TruncateTo(1); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Decisions(), []int{0}) {
		t.Fatalf("Decisions() = %v, want [0]", s.Decisions())
	}
	if !slices.Contains(s.Ready(), 1) {
		t.Fatalf("p1 not ready after truncating past its crash (ready %v)", s.Ready())
	}
	// The branch can now schedule p1 instead of crashing it.
	mustSteps(t, s, 1, 1, 1, 1)
	if s.Trace().Crashed(1) {
		t.Fatal("crash event survived the rewind")
	}
}

func TestSessionExhaustThenExtend(t *testing.T) {
	s := startTestSession(t)
	defer s.Close()
	mustSteps(t, s, 0, 0, 0, 0, 1, 1, 1, 1)
	if !s.Finished() {
		t.Fatalf("session not finished after full schedule (ready %v)", s.Ready())
	}
	if err := s.Step(0); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Step on exhausted session = %v, want ErrNotReady", err)
	}

	// An exhausted session is a checkpoint, not a dead end: rewind to
	// p0's last pending access and take a different branch.
	if err := s.TruncateTo(3); err != nil {
		t.Fatal(err)
	}
	if s.Finished() {
		t.Fatal("still finished after rewind")
	}
	mustSteps(t, s, 1, 0)
	want := []int{0, 0, 0, 1, 0}
	if !slices.Equal(s.Decisions(), want) {
		t.Fatalf("Decisions() = %v, want %v", s.Decisions(), want)
	}
}

func TestSessionTruncateBounds(t *testing.T) {
	s := startTestSession(t)
	defer s.Close()
	mustSteps(t, s, 0, 1)
	if err := s.TruncateTo(-1); err == nil {
		t.Error("TruncateTo(-1) must fail")
	}
	if err := s.TruncateTo(3); err == nil {
		t.Error("TruncateTo beyond the stack must fail")
	}
	if err := s.TruncateTo(2); err != nil {
		t.Errorf("TruncateTo(len) on a live session should be a no-op: %v", err)
	}
	if err := s.TruncateTo(0); err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 0 {
		t.Fatalf("Depth() = %d after TruncateTo(0)", s.Depth())
	}
}

func TestSessionSeek(t *testing.T) {
	mem, procs, _ := testProgram()
	ar := NewArena()
	s, err := StartSession(Config{Mem: mem, Procs: procs, Reuse: ar})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Extension: current stack (empty) is a prefix of the target.
	if err := s.Seek([]int{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	ref := eventsSnapshot(s)

	// Divergent seek: the sibling branch rewinds the moved processes.
	if err := s.Seek([]int{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Decisions(), []int{0, 1, 1}) {
		t.Fatalf("Decisions() = %v after divergent seek", s.Decisions())
	}

	// Seeking back reproduces the earlier state exactly.
	if err := s.Seek([]int{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(eventsSnapshot(s), ref) {
		t.Fatal("re-seek did not reproduce the original trace")
	}

	// Seek may alias the session's own decision stack.
	if err := s.Seek(s.Decisions()[:1]); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Decisions(), []int{0}) {
		t.Fatalf("Decisions() = %v after aliased seek", s.Decisions())
	}
}

// TestSessionEventsBeforeAndValues pins the two read-only accessors the
// model checker's incremental state identity rests on: EventsBefore(k) is
// the trace length before decision k (the current length at k ==
// Depth()), a Seek that diverges at decision k keeps exactly that many
// events, and Values is the memory the resulting trace replays to.
func TestSessionEventsBeforeAndValues(t *testing.T) {
	s := startTestSession(t)
	defer s.Close()
	var lens []int
	for _, d := range []int{0, 0, 1, 0, 1} {
		lens = append(lens, len(s.Trace().Events))
		mustSteps(t, s, d)
	}
	lens = append(lens, len(s.Trace().Events))
	for k, want := range lens {
		if got := s.EventsBefore(k); got != want {
			t.Fatalf("EventsBefore(%d) = %d, want %d", k, got, want)
		}
	}
	before := eventsSnapshot(s)
	if err := s.Seek([]int{0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	after := eventsSnapshot(s)
	if !slices.Equal(after[:lens[2]], before[:lens[2]]) {
		t.Fatalf("a seek diverging at decision 2 changed the first %d events", lens[2])
	}
	if got, want := s.Values(), s.Trace().ReplayValues(len(after)); !slices.Equal(got, want) {
		t.Fatalf("Values() = %v, the trace replays to %v", got, want)
	}
}

func TestSessionCloseThenRevive(t *testing.T) {
	s := startTestSession(t)
	mustSteps(t, s, 0, 1)
	s.Close()
	if err := s.Step(0); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Step on closed session = %v, want ErrSessionClosed", err)
	}
	// Seek revives a closed session (the checker's workers do this when
	// they pick up a frontier node after abandoning a chain).
	if err := s.Seek([]int{1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Decisions(), []int{1, 1, 0}) {
		t.Fatalf("Decisions() = %v after revive", s.Decisions())
	}
	mustSteps(t, s, 0)
	s.Close()
}
