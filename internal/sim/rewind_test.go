package sim

// Coverage for Session's per-process rewind: a diverging Seek keeps the
// bodies that did not move parked and re-feeds only the moved ones, so
// its result must be indistinguishable from a fresh session driven
// forward to the same schedule, it must not re-enter unmoved bodies, and
// it must refuse a body that does not reproduce its recorded run.

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cfc/internal/opset"
)

// rewindProgram returns a fresh three-process program whose requests
// depend on the values it reads: field views of one packed word, a
// whole-word counter, a test-and-set bit, local steps, phase marks and
// an output, so a wrong memory or a wrong re-fed response changes later
// events. Process 2 returns after a short prefix, so termination marks
// fall mid-run.
func rewindProgram() (*Memory, []ProcFunc) {
	mem := NewMemory(opset.ModelOf(opset.ReadWord, opset.WriteWord, opset.Read,
		opset.Write0, opset.Write1, opset.TestAndSet, opset.Flip))
	w := mem.Register("w", 8)
	lo, hi := mem.Field(w, 0, 4), mem.Field(w, 4, 4)
	y := mem.Register("y", 8)
	b := mem.Bit("b")
	body := func(p *Proc) {
		p.Mark(PhaseTry)
		rounds := 3
		if p.ID() == 2 {
			rounds = 1
		}
		for r := 0; r < rounds; r++ {
			v := p.Read(lo)
			if v%2 == uint64(p.ID()%2) {
				p.Local()
			}
			p.Write(hi, (v+uint64(p.ID())+1)%16)
			p.Write(y, (p.Read(y)+1)%256)
			if p.TestAndSet(b) == 1 {
				p.Flip(b)
			}
		}
		p.Output(p.Read(hi))
	}
	return mem, []ProcFunc{body, body, body}
}

// randomExtension drives s forward by up to m random legal decisions —
// steps and crashes of ready processes, restarts of crashed ones — and
// returns the resulting decision stack.
func randomExtension(t *testing.T, s *Session, rng *rand.Rand, m int) []int {
	t.Helper()
	for i := 0; i < m; i++ {
		var crashed []int
		for pid, c := range s.loop.crashed {
			if c {
				crashed = append(crashed, pid)
			}
		}
		ready := s.Ready()
		var err error
		switch {
		case len(crashed) > 0 && (len(ready) == 0 || rng.Intn(3) == 0):
			err = s.Restart(crashed[rng.Intn(len(crashed))])
		case len(ready) == 0:
			return slices.Clone(s.Decisions())
		case rng.Intn(8) == 0:
			err = s.Crash(ready[rng.Intn(len(ready))])
		default:
			err = s.Step(ready[rng.Intn(len(ready))])
		}
		if err != nil {
			t.Fatalf("extending %v: %v", s.Decisions(), err)
		}
	}
	return slices.Clone(s.Decisions())
}

// assertSameSession compares everything a caller can observe of a
// session, plus the crash table.
func assertSameSession(t *testing.T, got, want *Session, mem, wantMem *Memory) {
	t.Helper()
	target := want.Decisions()
	if !slices.Equal(got.Decisions(), target) {
		t.Fatalf("Decisions() = %v, want %v", got.Decisions(), target)
	}
	if !slices.Equal(got.Trace().Events, want.Trace().Events) {
		t.Fatalf("seek %v: trace differs from a fresh session:\n got %v\nwant %v",
			target, got.Trace().Events, want.Trace().Events)
	}
	if !slices.Equal(got.Ready(), want.Ready()) {
		t.Fatalf("seek %v: Ready() = %v, want %v", target, got.Ready(), want.Ready())
	}
	if g, w := got.PendingOps(nil), want.PendingOps(nil); !slices.Equal(g, w) {
		t.Fatalf("seek %v: PendingOps() = %+v, want %+v", target, g, w)
	}
	if g, w := mem.Snapshot(), wantMem.Snapshot(); !slices.Equal(g, w) {
		t.Fatalf("seek %v: memory %v, want %v", target, g, w)
	}
	if g, w := got.Trace().ScheduledSteps, want.Trace().ScheduledSteps; g != w {
		t.Fatalf("seek %v: ScheduledSteps = %d, want %d", target, g, w)
	}
	if g, w := got.Trace().Stop, want.Trace().Stop; g != w {
		t.Fatalf("seek %v: Stop = %v, want %v", target, g, w)
	}
	if got.Finished() != want.Finished() {
		t.Fatalf("seek %v: Finished() = %v, want %v", target, got.Finished(), want.Finished())
	}
	if !slices.Equal(got.loop.crashed, want.loop.crashed) {
		t.Fatalf("seek %v: crashed %v, want %v", target, got.loop.crashed, want.loop.crashed)
	}
}

// TestSessionRewindMatchesFreshSession seeks one arena-backed session to
// random targets — prefixes of its stack, extensions, and siblings that
// diverge anywhere, with step, crash and restart entries — and after
// every Seek compares it with a fresh session driven forward to the same
// schedule.
func TestSessionRewindMatchesFreshSession(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem, procs := rewindProgram()
		s, err := StartSession(Config{Mem: mem, Procs: procs, MaxSteps: 1000, Reuse: NewArena()})
		if err != nil {
			t.Fatal(err)
		}
		rewinds := 0
		for iter := 0; iter < 300; iter++ {
			// Build the target on a scratch session: a random prefix of
			// the current stack, randomly extended.
			cur := s.Decisions()
			k := rng.Intn(len(cur) + 1)
			gmem, gprocs := rewindProgram()
			gen, err := StartSession(Config{Mem: gmem, Procs: gprocs, MaxSteps: 1000})
			if err != nil {
				t.Fatal(err)
			}
			if err := gen.Seek(cur[:k]); err != nil {
				t.Fatal(err)
			}
			target := randomExtension(t, gen, rng, rng.Intn(10))
			gen.Close()

			if k < len(s.Decisions()) {
				rewinds++
			}
			switch rng.Intn(10) {
			case 0:
				err = s.TruncateTo(k)
				target = target[:k]
			case 1:
				s.Close() // a closed session revives by a full replay
				err = s.Seek(target)
			default:
				err = s.Seek(target)
			}
			if err != nil {
				t.Fatalf("seed %d: Seek(%v): %v", seed, target, err)
			}

			fmem, fprocs := rewindProgram()
			fresh, err := StartSession(Config{Mem: fmem, Procs: fprocs, MaxSteps: 1000})
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Seek(target); err != nil {
				t.Fatal(err)
			}
			assertSameSession(t, s, fresh, mem, fmem)
			fresh.Close()
		}
		s.Close()
		if rewinds < 100 {
			t.Fatalf("seed %d: only %d of 300 seeks rewound", seed, rewinds)
		}
	}
}

// TestSessionRewindKeepsUnmovedBodies counts body entries: a rewind
// re-runs only the processes named in the discarded decisions, and
// Executed charges the re-fed decisions plus the new ones.
func TestSessionRewindKeepsUnmovedBodies(t *testing.T) {
	mem := NewMemory(opset.AtomicRegisters)
	x := mem.Register("x", 8)
	entries := make([]int, 2)
	body := func(p *Proc) {
		entries[p.ID()]++
		for i := 0; i < 3; i++ {
			p.Write(x, uint64(10*p.ID()+i))
		}
	}
	s, err := StartSession(Config{Mem: mem, Procs: []ProcFunc{body, body}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	steps := []struct {
		seek     []int
		entries  []int
		executed int
	}{
		{[]int{0, 1, 1}, []int{1, 1}, 3}, // extension: no rewind
		{[]int{0, 1}, []int{1, 2}, 4},    // p1 moved: re-fed its kept step
		{[]int{0, 0}, []int{1, 3}, 5},    // p1 moved, nothing kept; then step p0
		{[]int{0, 0, 1}, []int{1, 3}, 6}, // extension
		{[]int{1}, []int{2, 4}, 7},       // both moved; then step p1
	}
	for _, st := range steps {
		if err := s.Seek(st.seek); err != nil {
			t.Fatalf("Seek(%v): %v", st.seek, err)
		}
		if !slices.Equal(entries, st.entries) {
			t.Fatalf("after Seek(%v): body entries %v, want %v", st.seek, entries, st.entries)
		}
		if s.Executed() != st.executed {
			t.Fatalf("after Seek(%v): Executed() = %d, want %d", st.seek, s.Executed(), st.executed)
		}
	}
	if got := mem.Snapshot()[0]; got != 10 {
		t.Fatalf("x = %d after the last seek, want p1's first write 10", got)
	}
}

// TestSessionRewindRejectsNondeterministicBody runs bodies that count
// their own invocations through a closure variable — state outside the
// simulated memory — and act on the count. Re-fed after a rewind, such a
// body issues a different request than the one recorded (or none), and
// the rewind must fail with ErrDiverged naming the process and the
// recorded event rather than silently produce a different run: whether
// the recorded event lies in the kept prefix (at the body's first kept
// step, deep inside it, or past a kept crash and restart, where the kept
// events split into two segments) or is the body's first discarded step.
// A full replay then revives the session.
func TestSessionRewindRejectsNondeterministicBody(t *testing.T) {
	writesCount := func(calls uint64, p *Proc, x Reg) {
		p.Write(x, calls)
		p.Read(x)
	}
	returnsOnRerun := func(calls uint64, p *Proc, x Reg) {
		if calls > 1 {
			return
		}
		p.Write(x, 1)
		p.Read(x)
	}
	writesCountThird := func(calls uint64, p *Proc, x Reg) {
		p.Write(x, 1)
		p.Read(x)
		p.Write(x, calls)
		p.Read(x)
	}
	returnsAfterTwo := func(calls uint64, p *Proc, x Reg) {
		p.Write(x, 1)
		p.Read(x)
		if calls > 1 {
			return
		}
		p.Write(x, 2)
		p.Read(x)
	}
	crash, restart := CrashEntry(0), RestartEntry(0)
	for _, tc := range []struct {
		name       string
		body       func(calls uint64, p *Proc, x Reg)
		run, seek  []int
		recorded   int // Seq of the recorded event the error must name
		revive     []int
		wantEvents int // after the revival
	}{
		{"kept step", writesCount, []int{0, 0, 1}, []int{0, 1}, 0, []int{0, 1}, 2},
		{"parked request", writesCount, []int{1, 0}, []int{1, 1}, 1, []int{1, 1}, 3}, // p1 returns: a termination mark
		// Both bodies now return at once: two termination marks.
		{"returned early", returnsOnRerun, []int{0, 0, 1}, []int{0, 1}, 0, []int{}, 2},
		{"third kept step", writesCountThird, []int{0, 0, 0, 1, 0}, []int{0, 0, 0, 1}, 2, []int{0, 0, 0, 1}, 4},
		// p0 now returns after its second step: a termination mark.
		{"returned mid-segment", returnsAfterTwo, []int{0, 0, 0, 1, 0}, []int{0, 0, 0, 1}, 2, []int{0, 0, 1}, 4},
		// p0's kept events: a step, the crash, the restart, three steps;
		// the second segment diverges at its third step.
		{"second segment", writesCountThird, []int{0, crash, restart, 0, 0, 0, 1, 0},
			[]int{0, crash, restart, 0, 0, 0, 1}, 5, []int{0, crash, restart, 0, 0, 0, 1}, 7},
	} {
		mem := NewMemory(opset.AtomicRegisters)
		x := mem.Register("x", 8)
		calls := make([]uint64, 2)
		body := func(p *Proc) {
			calls[p.ID()]++
			tc.body(calls[p.ID()], p, x)
		}
		s, err := StartSession(Config{Mem: mem, Procs: []ProcFunc{body, body}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Seek(tc.run); err != nil {
			t.Fatalf("%s: Seek(%v): %v", tc.name, tc.run, err)
		}
		recorded := s.Trace().Events[tc.recorded]
		err = s.Seek(tc.seek)
		if !errors.Is(err, ErrDiverged) {
			t.Fatalf("%s: rewind of a nondeterministic body: err = %v, want ErrDiverged", tc.name, err)
		}
		if !strings.Contains(err.Error(), "process 0") {
			t.Fatalf("%s: error %q does not name process 0", tc.name, err)
		}
		if want := "recorded " + recorded.String() + ","; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name the recorded event %q", tc.name, err, recorded)
		}
		if s.Err() == nil || s.Trace().Stop != StopError {
			t.Fatalf("%s: session not errored after divergence: Err %v, Stop %v", tc.name, s.Err(), s.Trace().Stop)
		}
		if err := s.Step(1); err == nil {
			t.Fatalf("%s: Step on a diverged session succeeded", tc.name)
		}
		if err := s.Seek(tc.revive); err != nil {
			t.Fatalf("%s: revival by full replay: %v", tc.name, err)
		}
		if !slices.Equal(s.Decisions(), tc.revive) || len(s.Trace().Events) != tc.wantEvents {
			t.Fatalf("%s: revived at %v with %d events, want %d", tc.name, s.Decisions(),
				len(s.Trace().Events), tc.wantEvents)
		}
		s.Close()
	}
}

// TestSessionRewindAllocationFree is the allocation gate for rewinds: a
// reuse-arena session cycling Seek over schedules that each rewind all
// three bodies, every one with kept steps to re-feed, and one with a kept
// crash and restart (two segments), allocates nothing once its buffers
// are warm. A rewind reuses each body's coroutine and restores memory
// from its undo words.
func TestSessionRewindAllocationFree(t *testing.T) {
	mem, procs := rewindProgram()
	s, err := StartSession(Config{Mem: mem, Procs: procs, MaxSteps: 1000, Reuse: NewArena()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	crash1, restart1 := CrashEntry(1), RestartEntry(1)
	schedules := [][]int{
		{0, 1, 2, 0, 1, 2, 0, 1, 2, 0},
		{0, 1, 2, 0, crash1, restart1, 1, 2, 0, 1},
		{0, 1, 2, 0, crash1, restart1, 2, 0, 1, 1},
	}
	cycle := func() {
		for _, sch := range schedules {
			cur, lcp := s.Decisions(), 0
			for lcp < len(cur) && lcp < len(sch) && cur[lcp] == sch[lcp] {
				lcp++
			}
			before := s.Executed()
			if err := s.Seek(sch); err != nil {
				t.Fatalf("Seek(%v): %v", sch, err)
			}
			// Every body moves, so every kept decision is re-fed.
			if refed := s.Executed() - before - (len(sch) - lcp); refed != lcp {
				t.Fatalf("Seek(%v) re-fed %d decisions, want all %d kept", sch, refed, lcp)
			}
		}
	}
	cycle() // warm the session's buffers
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a cycle of %d rewinding seeks allocates %.1f times, want 0", len(schedules), allocs)
	}
}

// TestSessionCoroutinesLiveAsLongAsTheSession pins the coroutine
// lifetime: a session starts one coroutine per process, rewinds, crashes
// and restarts start none, a finished session keeps them parked so it
// can still be rewound, and Close ends them all — as does the next
// session on the arena of a finished one.
func TestSessionCoroutinesLiveAsLongAsTheSession(t *testing.T) {
	live := func(when string, want int) {
		t.Helper()
		buf := make([]byte, 1<<20)
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sim.(*coroTransport).initCoro") {
				got++
			}
		}
		if got != want {
			t.Fatalf("%s: %d body coroutines, want %d", when, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	ar := NewArena()
	start := func() *Session {
		mem, procs := rewindProgram()
		s, err := StartSession(Config{Mem: mem, Procs: procs, MaxSteps: 1000, Reuse: ar})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	finish := func(s *Session) {
		for !s.Finished() {
			randomExtension(t, s, rng, 1)
		}
	}

	s := start()
	live("started", 3)
	for i := 0; i < 100; i++ {
		if err := s.TruncateTo(rng.Intn(s.Depth() + 1)); err != nil {
			t.Fatal(err)
		}
		randomExtension(t, s, rng, rng.Intn(12))
		live("after rewinds", 3)
	}
	finish(s)
	live("finished", 3)
	s.Close()
	live("closed", 0)

	finish(start())
	s = start()
	live("started on the arena of a finished session", 3)
	s.Close()
	live("closed", 0)
}
