package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Action is the kind of decision a Scheduler makes at each scheduling
// point.
type Action uint8

const (
	// ActStep schedules the chosen process to perform its pending event.
	ActStep Action = iota + 1
	// ActCrash injects a stopping failure into the chosen process; it
	// takes no further steps (used to exercise wait-freedom) unless the
	// scheduler later revives it with ActRestart.
	ActCrash
	// ActStop ends the run; all remaining processes are unwound.
	ActStop
	// ActRestart revives the chosen crashed process: its body is re-run
	// from the beginning against the surviving shared memory. Only a
	// currently crashed process may be restarted. Restarts model the
	// crash/recovery failure mode the fault-injection fleet exercises.
	ActRestart
)

// Decision is a scheduling decision: an action and, for ActStep and
// ActCrash, the target process.
type Decision struct {
	Action Action
	PID    int
}

// Step returns a decision scheduling pid.
func Step(pid int) Decision { return Decision{Action: ActStep, PID: pid} }

// Crash returns a decision crashing pid.
func Crash(pid int) Decision { return Decision{Action: ActCrash, PID: pid} }

// Stop returns a decision ending the run.
func Stop() Decision { return Decision{Action: ActStop} }

// Restart returns a decision restarting crashed process pid.
func Restart(pid int) Decision { return Decision{Action: ActRestart, PID: pid} }

// Scheduler chooses, at every scheduling point, which process performs its
// pending atomic event. It is the adversary of the asynchronous model: no
// assumption is made about relative speeds, so any scheduler is a legal
// environment.
//
// ready is the sorted list of process ids with a pending scheduled event
// (shared access or local step); it is never empty and must not be
// modified. step is the number of scheduled events performed so far.
type Scheduler interface {
	Next(ready []int, step int) Decision
}

// RestartCapable marks schedulers that may revive crashed processes with
// ActRestart. For such a scheduler the run loop keeps the run alive while
// crashed processes remain and CanRestart reports true, even when no
// process has a pending event — Next is then called with an empty ready
// slice, relaxing the usual "ready is never empty" contract, and must
// return ActRestart or ActStop.
type RestartCapable interface {
	Scheduler
	// CanRestart reports whether the scheduler may yet restart a crashed
	// process.
	CanRestart() bool
}

// DeterministicScheduler marks a scheduler whose decisions are a pure
// function of the observed ready sets and step numbers (no wall-clock or
// true randomness). Run exploits the promise by selecting the direct
// execution engine automatically, which runs process bodies on the
// run-loop goroutine instead of behind channel handshakes; the traces are
// identical, an order of magnitude faster. All built-in schedulers are
// deterministic (Random draws from a seeded source); a Crasher is
// deterministic exactly when its inner scheduler is.
type DeterministicScheduler interface {
	Scheduler
	// DeterministicSchedule is a marker; it is never called.
	DeterministicSchedule()
}

// Solo schedules only the process with id PID and stops the run once it
// terminates (or if it never becomes ready). It produces the paper's
// contention-free runs when the other processes stay in their remainder
// regions.
type Solo struct {
	PID int
}

// Next implements Scheduler.
func (s Solo) Next(ready []int, _ int) Decision {
	if idx := sort.SearchInts(ready, s.PID); idx < len(ready) && ready[idx] == s.PID {
		return Step(s.PID)
	}
	return Stop()
}

// Sequential runs processes to completion one at a time in increasing pid
// order: the lowest ready pid always steps. This is exactly the run
// construction of Theorems 5 and 7 of the paper ("all the processes are
// scheduled one at a time, one after the other").
type Sequential struct{}

// Next implements Scheduler.
func (Sequential) Next(ready []int, _ int) Decision {
	return Step(ready[0])
}

// RoundRobin cycles through the ready processes, giving each one event per
// round in pid order. Applied to identical processes it is the clone
// adversary of Theorem 6: all processes take the same operation in lock
// step.
type RoundRobin struct {
	last int // pid scheduled most recently + 1
}

// Next implements Scheduler.
func (r *RoundRobin) Next(ready []int, _ int) Decision {
	idx := sort.SearchInts(ready, r.last)
	if idx == len(ready) {
		idx = 0
	}
	pid := ready[idx]
	r.last = pid + 1
	return Step(pid)
}

// Random schedules a uniformly random ready process using a deterministic
// seeded source, so runs remain reproducible.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random scheduler with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Scheduler.
func (r *Random) Next(ready []int, _ int) Decision {
	return Step(ready[r.rng.Intn(len(ready))])
}

// Scripted follows an explicit schedule of pids, one per scheduling point,
// and stops when the script is exhausted. If the scripted pid is not
// ready, the run stops early and Valid is set to false; the model checker
// only generates scripts from observed ready sets, so an invalid script
// indicates nondeterminism and is reported loudly.
type Scripted struct {
	Script []int

	pos     int
	invalid bool
}

// NewScripted returns a scheduler that follows script.
func NewScripted(script []int) *Scripted {
	return &Scripted{Script: script}
}

// Next implements Scheduler.
func (s *Scripted) Next(ready []int, _ int) Decision {
	if s.pos >= len(s.Script) {
		return Stop()
	}
	pid := s.Script[s.pos]
	s.pos++
	if idx := sort.SearchInts(ready, pid); idx == len(ready) || ready[idx] != pid {
		s.invalid = true
		return Stop()
	}
	return Step(pid)
}

// Valid reports whether every scripted pid was ready when scheduled (so
// far). A false value after a run means the script did not correspond to a
// real schedule of this program.
func (s *Scripted) Valid() bool { return !s.invalid }

// Consumed returns how many script entries were used.
func (s *Scripted) Consumed() int { return s.pos }

// CrashWindow is one crash/recovery cycle of a process under a Crasher:
// the process crashes at (or after) step Crash, and, if Restart >= 0, is
// restarted at (or after) step Restart. A negative Restart means the
// crash is final (crash-stop).
type CrashWindow struct {
	Crash   int
	Restart int
}

// Crasher wraps another scheduler and injects stopping failures: before
// step CrashAt[pid] is scheduled, process pid is crashed. Crashes are
// injected in increasing pid order when several trigger at the same step.
//
// Windows extends the one-shot CrashAt map to full crash/recovery storms:
// Windows[pid] is a sequence of crash/restart cycles applied in order
// (crash, restart, crash again, ...). A pid belongs in CrashAt or
// Windows, not both (CrashAt wins if it is in both); CrashAt[pid] = s is
// equivalent to a single final window {Crash: s, Restart: -1}.
// Restarts are injected in increasing pid order too, and when no process
// has a pending event the earliest-pid due restart is injected
// immediately (regardless of its Restart step, which could otherwise
// never be reached — steps only advance while something runs).
//
// CrashAt and Windows are read once, at the first Next, into dense
// per-pid slices; changing them afterwards has no effect. From then on a
// decision costs a few slice reads per ready pid and, only while some
// crashed pid has a restart to come, one pass over the pids, on top of
// the inner scheduler's own cost. CanRestart is a counter read.
type Crasher struct {
	Inner   Scheduler
	CrashAt map[int]int           // pid -> step index at (or after) which it crashes
	Windows map[int][]CrashWindow // pid -> crash/recovery cycles, in order

	wins      [][]CrashWindow // pid -> cycles; nil until the first Next
	crashed   []bool
	winpos    []int // pid -> index of the active window in wins[pid]
	revivable int   // crashed pids whose active window has a restart
}

// fold builds the dense per-pid state from CrashAt and Windows, once.
// Negative pids name no process and are dropped.
func (c *Crasher) fold() {
	if c.wins != nil {
		return
	}
	size := 0
	for pid := range c.CrashAt {
		size = max(size, pid+1)
	}
	for pid := range c.Windows {
		size = max(size, pid+1)
	}
	c.wins = make([][]CrashWindow, size)
	c.crashed = make([]bool, size)
	c.winpos = make([]int, size)
	for pid, ws := range c.Windows {
		if pid >= 0 {
			c.wins[pid] = ws
		}
	}
	for pid, at := range c.CrashAt {
		if pid >= 0 {
			c.wins[pid] = []CrashWindow{{Crash: at, Restart: -1}}
		}
	}
}

// Next implements Scheduler.
func (c *Crasher) Next(ready []int, step int) Decision {
	c.fold()
	for _, pid := range ready {
		if pid >= len(c.wins) || c.crashed[pid] {
			continue
		}
		if i := c.winpos[pid]; i < len(c.wins[pid]) && step >= c.wins[pid][i].Crash {
			c.crashed[pid] = true
			if c.wins[pid][i].Restart >= 0 {
				c.revivable++
			}
			return Crash(pid)
		}
	}
	// Restarts, in pid order; forced when nothing else can run.
	if c.revivable > 0 {
		for pid, down := range c.crashed {
			if !down {
				continue
			}
			// A crashed pid's active window is the one it crashed in.
			if r := c.wins[pid][c.winpos[pid]].Restart; r >= 0 && (step >= r || len(ready) == 0) {
				c.crashed[pid] = false
				c.winpos[pid]++
				c.revivable--
				return Restart(pid)
			}
		}
	}
	if len(ready) == 0 {
		return Stop()
	}
	return c.Inner.Next(ready, step)
}

// CanRestart implements RestartCapable: a restart may yet be injected
// while some crashed process has a window with a non-negative Restart.
func (c *Crasher) CanRestart() bool { return c.revivable > 0 }

// Func adapts a plain function to the Scheduler interface.
type Func func(ready []int, step int) Decision

// Next implements Scheduler.
func (f Func) Next(ready []int, step int) Decision { return f(ready, step) }

// Priority schedules the ready process whose pid appears earliest in
// Order; pids absent from Order are scheduled last, in pid order. It is a
// convenient building block for hand-crafted adversaries.
type Priority struct {
	Order []int
}

// Next implements Scheduler.
func (p Priority) Next(ready []int, _ int) Decision {
	rank := make(map[int]int, len(p.Order))
	for i, pid := range p.Order {
		if _, ok := rank[pid]; !ok {
			rank[pid] = i
		}
	}
	best := ready[0]
	bestRank := rankOf(rank, best)
	for _, pid := range ready[1:] {
		if r := rankOf(rank, pid); r < bestRank {
			best, bestRank = pid, r
		}
	}
	return Step(best)
}

func rankOf(rank map[int]int, pid int) int {
	if r, ok := rank[pid]; ok {
		return r
	}
	return 1<<30 + pid // missing pids keep pid order after all ranked ones
}

// DeterministicSchedule marks the built-in schedulers as deterministic;
// see DeterministicScheduler.
func (Solo) DeterministicSchedule()        {}
func (Sequential) DeterministicSchedule()  {}
func (*RoundRobin) DeterministicSchedule() {}
func (*Random) DeterministicSchedule()     {}
func (*Scripted) DeterministicSchedule()   {}
func (Priority) DeterministicSchedule()    {}

var (
	_ DeterministicScheduler = Solo{}
	_ DeterministicScheduler = Sequential{}
	_ DeterministicScheduler = (*RoundRobin)(nil)
	_ DeterministicScheduler = (*Random)(nil)
	_ DeterministicScheduler = (*Scripted)(nil)
	_ RestartCapable         = (*Crasher)(nil)
	_ Scheduler              = Func(nil)
	_ DeterministicScheduler = Priority{}
)

// String implementations aid debugging of experiment configurations.

func (s Solo) String() string      { return fmt.Sprintf("solo(p%d)", s.PID) }
func (Sequential) String() string  { return "sequential" }
func (*RoundRobin) String() string { return "round-robin" }
func (*Random) String() string     { return "random" }
func (s *Scripted) String() string { return fmt.Sprintf("scripted(%d)", len(s.Script)) }
func (c *Crasher) String() string  { return fmt.Sprintf("crasher(%v)", c.Inner) }
func (p Priority) String() string  { return fmt.Sprintf("priority(%v)", p.Order) }
