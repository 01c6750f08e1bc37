package metrics

import (
	"fmt"

	"cfc/internal/sim"
)

// The three safety properties below are the model checker's Property
// functions, called once per explored state — hundreds of thousands of
// times per exploration, and concurrently from several goroutines when
// the checker's DPOR stage pass runs on several (check.Options.Workers)
// or several explorations run at once (cfccheck -workers). They are
// therefore written to two contracts:
//
//   - Safe for concurrent use: pure functions of the trace, no package
//     state, no retained scratch. Accumulation across states (violation
//     counts, worst measures) is the caller's job; these only judge one
//     trace.
//
//   - Allocation-free on the success path for the process counts the
//     checker handles (n <= 64 for mutual exclusion, n <= 64 outputs for
//     uniqueness): set membership lives in stack bitmasks and fixed
//     arrays, with a heap fallback only for wider traces and for
//     composing error messages once a violation is found.

// CheckMutualExclusion verifies the safety property of Section 2.1 on a
// trace: no two processes are in their critical sections at the same time.
// It returns nil if the property holds, or an error naming the first
// violating state.
func CheckMutualExclusion(t *sim.Trace) error {
	if t.NumProcs > 64 {
		return checkMutualExclusionWide(t)
	}
	var inCS uint64
	count := 0
	for _, e := range t.Events {
		if e.Kind == sim.KindCrash {
			// A crashed process is no longer executing its critical
			// section; without this a crash-in-CS followed by a restart
			// and a fresh CS entry would flag the process against itself.
			bit := uint64(1) << uint(e.PID)
			if inCS&bit != 0 {
				inCS &^= bit
				count--
			}
			continue
		}
		if e.Kind != sim.KindMark {
			continue
		}
		bit := uint64(1) << uint(e.PID)
		switch e.Phase {
		case sim.PhaseCS:
			if inCS&bit == 0 {
				inCS |= bit
				count++
			}
			if count > 1 {
				var holders []int
				for pid := 0; pid < t.NumProcs; pid++ {
					if inCS&(uint64(1)<<uint(pid)) != 0 {
						holders = append(holders, pid)
					}
				}
				return fmt.Errorf("metrics: mutual exclusion violated at event %d: processes %v in critical section", e.Seq, holders)
			}
		case sim.PhaseExit, sim.PhaseRemainder, sim.PhaseTry:
			if inCS&bit != 0 {
				inCS &^= bit
				count--
			}
		}
	}
	return nil
}

// checkMutualExclusionWide is the heap-backed fallback for traces with
// more than 64 processes (never produced by the model checker, which
// explores small configurations; measurement traces can be wider).
func checkMutualExclusionWide(t *sim.Trace) error {
	inCS := make([]bool, t.NumProcs)
	count := 0
	for _, e := range t.Events {
		if e.Kind == sim.KindCrash {
			if inCS[e.PID] {
				inCS[e.PID] = false
				count--
			}
			continue
		}
		if e.Kind != sim.KindMark {
			continue
		}
		switch e.Phase {
		case sim.PhaseCS:
			if !inCS[e.PID] {
				inCS[e.PID] = true
				count++
			}
			if count > 1 {
				holders := []int{}
				for pid, in := range inCS {
					if in {
						holders = append(holders, pid)
					}
				}
				return fmt.Errorf("metrics: mutual exclusion violated at event %d: processes %v in critical section", e.Seq, holders)
			}
		case sim.PhaseExit, sim.PhaseRemainder, sim.PhaseTry:
			if inCS[e.PID] {
				inCS[e.PID] = false
				count--
			}
		}
	}
	return nil
}

// CheckUniqueOutputs verifies the naming safety property (Section 3): all
// processes that produced an output produced distinct values. It returns
// nil if outputs are unique.
func CheckUniqueOutputs(t *sim.Trace) error {
	// One output per process in every naming run, so a fixed buffer with
	// a linear duplicate scan beats a map for the checker's small n.
	var (
		outs [64]uint64
		pids [64]int32
		n    int
	)
	for _, e := range t.Events {
		if e.Kind != sim.KindOutput {
			continue
		}
		for i := 0; i < n; i++ {
			if outs[i] == e.Out {
				return fmt.Errorf("metrics: output %d chosen by both process %d and process %d", e.Out, pids[i], e.PID)
			}
		}
		if n == len(outs) {
			return checkUniqueOutputsWide(t)
		}
		outs[n] = e.Out
		pids[n] = int32(e.PID)
		n++
	}
	return nil
}

// checkUniqueOutputsWide is the map-backed fallback for traces with more
// than 64 outputs.
func checkUniqueOutputsWide(t *sim.Trace) error {
	seen := make(map[uint64]int)
	for _, e := range t.Events {
		if e.Kind != sim.KindOutput {
			continue
		}
		if prev, dup := seen[e.Out]; dup {
			return fmt.Errorf("metrics: output %d chosen by both process %d and process %d", e.Out, prev, e.PID)
		}
		seen[e.Out] = e.PID
	}
	return nil
}

// CheckDetection verifies the contention-detection safety property
// (Section 2.3): at most one process terminates with output 1. If
// requireWinner is set (the contention-free liveness case: only one
// process was activated), exactly one process must output 1.
func CheckDetection(t *sim.Trace, requireWinner bool) error {
	winners := 0
	for _, e := range t.Events {
		if e.Kind == sim.KindOutput && e.Out == 1 {
			winners++
		}
	}
	if winners > 1 {
		// Violation path: rescan to name the processes.
		var pids []int
		for _, e := range t.Events {
			if e.Kind == sim.KindOutput && e.Out == 1 {
				pids = append(pids, e.PID)
			}
		}
		return fmt.Errorf("metrics: contention detection violated: processes %v all output 1", pids)
	}
	if requireWinner && winners == 0 {
		return fmt.Errorf("metrics: no process output 1 in a solo run")
	}
	return nil
}
