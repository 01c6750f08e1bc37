package sim

// Corner cases of Crasher's decisions, driven through Next with
// hand-made ready sets, and a randomized differential against a
// map-based model of the same rules.

import (
	"math/rand"
	"testing"
)

// crasherStep is one Next call and the decision it must return, plus
// CanRestart's answer right after it.
type crasherStep struct {
	ready      []int
	step       int
	want       Decision
	canRestart bool
}

func runCrasher(t *testing.T, c *Crasher, steps []crasherStep) {
	t.Helper()
	for i, s := range steps {
		if got := c.Next(s.ready, s.step); got != s.want {
			t.Fatalf("call %d: Next(%v, %d) = %+v, want %+v", i, s.ready, s.step, got, s.want)
		}
		if got := c.CanRestart(); got != s.canRestart {
			t.Fatalf("call %d: CanRestart() = %v, want %v", i, got, s.canRestart)
		}
	}
}

// TestCrasherCrashAtWinsOverWindows: a pid in both maps follows CrashAt,
// a single final crash, and ignores its windows.
func TestCrasherCrashAtWinsOverWindows(t *testing.T) {
	c := &Crasher{
		Inner:   Sequential{},
		CrashAt: map[int]int{1: 3},
		Windows: map[int][]CrashWindow{1: {{Crash: 0, Restart: 1}}},
	}
	runCrasher(t, c, []crasherStep{
		{[]int{0, 1}, 0, Step(0), false},
		{[]int{0, 1}, 2, Step(0), false},
		{[]int{0, 1}, 3, Crash(1), false},
		{[]int{0}, 4, Step(0), false},
		{nil, 5, Stop(), false},
	})
}

// TestCrasherSimultaneousCrashes: crashes due at the same step come one
// per decision in ascending pid order, whichever map holds them, and a
// due pid that is not ready waits until it is.
func TestCrasherSimultaneousCrashes(t *testing.T) {
	c := &Crasher{
		Inner:   Sequential{},
		CrashAt: map[int]int{3: 2, 1: 2},
		Windows: map[int][]CrashWindow{2: {{Crash: 2, Restart: -1}}, 0: {{Crash: 2, Restart: -1}}},
	}
	runCrasher(t, c, []crasherStep{
		{[]int{0, 1, 2, 3}, 1, Step(0), false},
		{[]int{1, 2, 3}, 2, Crash(1), false},
		{[]int{2, 3}, 2, Crash(2), false},
		{[]int{3}, 2, Crash(3), false},
		{[]int{0}, 3, Crash(0), false},
	})
}

// TestCrasherForcedRestart: with nothing ready, the lowest crashed pid
// that has a restart to come is revived at once, before its Restart step;
// crash-stopped pids are skipped, and with no restart left the run stops.
// While something is ready, restarts wait for their step.
func TestCrasherForcedRestart(t *testing.T) {
	c := &Crasher{
		Inner: Sequential{},
		Windows: map[int][]CrashWindow{
			3: {{Crash: 0, Restart: 100}},
			1: {{Crash: 0, Restart: 100}},
			2: {{Crash: 0, Restart: -1}},
		},
	}
	runCrasher(t, c, []crasherStep{
		{[]int{0, 1, 2, 3}, 0, Crash(1), true},
		{[]int{0, 2, 3}, 0, Crash(2), true},
		{[]int{0, 3}, 0, Crash(3), true},
		{[]int{0}, 1, Step(0), true},
		{nil, 2, Restart(1), true},
		{nil, 2, Restart(3), false},
		{nil, 2, Stop(), false},
	})
}

// TestCrasherCanRestart follows CanRestart through a pid's windows: false
// before the first crash, true while the pid is down with a restart to
// come, false once the last window has restarted it, and false after a
// crash-stop last window.
func TestCrasherCanRestart(t *testing.T) {
	c := &Crasher{Inner: Sequential{}, Windows: map[int][]CrashWindow{0: {{Crash: 1, Restart: 3}, {Crash: 5, Restart: 7}}}}
	if c.CanRestart() {
		t.Fatal("CanRestart before the first Next")
	}
	runCrasher(t, c, []crasherStep{
		{[]int{0, 1}, 0, Step(0), false},
		{[]int{0, 1}, 1, Crash(0), true},
		{[]int{1}, 2, Step(1), true},
		{[]int{1}, 3, Restart(0), false},
		{[]int{0, 1}, 5, Crash(0), true},
		{[]int{1}, 7, Restart(0), false},
		{[]int{0, 1}, 100, Step(0), false},
	})

	c = &Crasher{Inner: Sequential{}, Windows: map[int][]CrashWindow{0: {{Crash: 1, Restart: 2}, {Crash: 4, Restart: -1}}}}
	runCrasher(t, c, []crasherStep{
		{[]int{0}, 1, Crash(0), true},
		{nil, 1, Restart(0), false},
		{[]int{0}, 4, Crash(0), false},
		{nil, 5, Stop(), false},
	})
}

// mapCrasher is Crasher's rules written directly over the maps, looking
// every pid up on every decision: the reference the dense state must
// reproduce decision for decision.
type mapCrasher struct {
	inner   Scheduler
	crashAt map[int]int
	windows map[int][]CrashWindow
	crashed map[int]bool
	winpos  map[int]int
}

func (c *mapCrasher) window(pid int) (CrashWindow, bool) {
	if at, ok := c.crashAt[pid]; ok {
		if c.winpos[pid] > 0 {
			return CrashWindow{}, false
		}
		return CrashWindow{Crash: at, Restart: -1}, true
	}
	if ws, i := c.windows[pid], c.winpos[pid]; i < len(ws) {
		return ws[i], true
	}
	return CrashWindow{}, false
}

func (c *mapCrasher) next(ready []int, step int) Decision {
	for _, pid := range ready {
		if w, ok := c.window(pid); ok && !c.crashed[pid] && step >= w.Crash {
			c.crashed[pid] = true
			return Crash(pid)
		}
	}
	victim := -1
	for pid, down := range c.crashed {
		w, ok := c.window(pid)
		if down && ok && w.Restart >= 0 && (step >= w.Restart || len(ready) == 0) && (victim < 0 || pid < victim) {
			victim = pid
		}
	}
	if victim >= 0 {
		c.crashed[victim] = false
		c.winpos[victim]++
		return Restart(victim)
	}
	if len(ready) == 0 {
		return Stop()
	}
	return c.inner.Next(ready, step)
}

func (c *mapCrasher) canRestart() bool {
	for pid, down := range c.crashed {
		if w, ok := c.window(pid); down && ok && w.Restart >= 0 {
			return true
		}
	}
	return false
}

// TestCrasherMatchesMapModel drives Crasher and mapCrasher with the same
// random storms (pids in both maps, pids never ready, negative pids) and
// random ready sets, and requires the same decision and CanRestart answer
// at every call.
func TestCrasherMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(6)
		crashAt := map[int]int{}
		windows := map[int][]CrashWindow{}
		for pid := -1; pid < n+2; pid++ {
			if rng.Intn(3) == 0 {
				crashAt[pid] = rng.Intn(20)
			}
			if rng.Intn(2) == 0 {
				var ws []CrashWindow
				at := 0
				for k := rng.Intn(4); k > 0; k-- {
					w := CrashWindow{Crash: at + rng.Intn(8), Restart: -1}
					if rng.Intn(4) > 0 {
						w.Restart = w.Crash + rng.Intn(8)
					}
					ws = append(ws, w)
					at = max(w.Crash, w.Restart)
				}
				windows[pid] = ws
			}
		}
		dense := &Crasher{Inner: Sequential{}, CrashAt: crashAt, Windows: windows}
		ref := &mapCrasher{inner: Sequential{}, crashAt: crashAt, windows: windows, crashed: map[int]bool{}, winpos: map[int]int{}}
		step := 0
		for call := 0; call < 60; call++ {
			var ready []int
			for pid := 0; pid < n; pid++ {
				if rng.Intn(3) > 0 {
					ready = append(ready, pid)
				}
			}
			step += rng.Intn(3)
			got, want := dense.Next(ready, step), ref.next(ready, step)
			if got != want {
				t.Fatalf("trial %d call %d: Next(%v, %d) = %+v, map model %+v (CrashAt %v, Windows %v)",
					trial, call, ready, step, got, want, crashAt, windows)
			}
			if got, want := dense.CanRestart(), ref.canRestart(); got != want {
				t.Fatalf("trial %d call %d: CanRestart() = %v, map model %v", trial, call, got, want)
			}
		}
	}
}
