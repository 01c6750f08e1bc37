package check

// Internal gate for the serial explorer's sibling batch peek: the peek
// must actually fire (visited siblings skipped without a replay) and the
// exploration it prunes must stay bit-identical — same States, Runs and
// verdict — to a depth-first search without the peek, which replays
// every child.

import (
	"slices"
	"testing"

	"cfc/internal/opset"
	"cfc/internal/sim"
)

func peekBuilder(n int) Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.RMW)
		b := mem.Bit("lock")
		body := func(p *sim.Proc) {
			p.Mark(sim.PhaseTry)
			for p.TestAndSet(b) != 0 {
			}
			p.Mark(sim.PhaseCS)
			p.Mark(sim.PhaseExit)
			p.TestAndReset(b)
			p.Mark(sim.PhaseRemainder)
		}
		procs := make([]sim.ProcFunc, n)
		for i := range procs {
			procs[i] = body
		}
		return mem, procs, nil
	}
}

func TestSiblingPeekSkipsReplays(t *testing.T) {
	prop := func(tr *sim.Trace) error { return nil }
	opts := Options{CollapseSpins: true, MaxDepth: 60}

	// Run the serial explorer by hand to read the peek counter.
	e := &explorer{
		prop:      prop,
		opts:      opts,
		maxDepth:  opts.MaxDepth,
		maxStates: 1 << 20,
	}
	if err := e.core.init(peekBuilder(3), e.maxDepth, opts.CollapseSpins); err != nil {
		t.Fatal(err)
	}
	if err := e.dfs(nil); err != nil {
		t.Fatal(err)
	}
	e.core.close()
	if e.peeked == 0 {
		t.Fatal("sibling peek never skipped a replay on a state-sharing program")
	}
	if e.violation != nil {
		t.Fatalf("unexpected violation: %v", e.violation)
	}

	// The reference is a test-local copy of dfs without the peek (the
	// pattern TestPeekKeyMatchesChild uses): every child is replayed.
	var core replayCore
	if err := core.init(peekBuilder(3), e.maxDepth, opts.CollapseSpins); err != nil {
		t.Fatal(err)
	}
	defer core.close()
	visited := make(map[uint64]bool)
	runs, truncated := 0, false
	var dfs func(sched []int)
	dfs = func(sched []int) {
		_, live, err := core.stateAt(sched)
		if err != nil {
			t.Fatalf("at %v: %v", sched, err)
		}
		if len(live) == 0 {
			runs++
			return
		}
		if len(sched) >= e.maxDepth {
			truncated = true
			return
		}
		h := core.stateHash()
		if visited[h] {
			return
		}
		visited[h] = true
		for _, pid := range live {
			dfs(append(slices.Clip(sched), pid))
		}
	}
	dfs(nil)
	if truncated || e.truncated {
		t.Fatalf("truncated: peeked=%v reference=%v", e.truncated, truncated)
	}
	if e.visited.len() != len(visited) || e.runs != runs {
		t.Fatalf("peeked serial exploration diverged: states %d vs %d, runs %d vs %d",
			e.visited.len(), len(visited), e.runs, runs)
	}
	t.Logf("states=%d runs=%d peeked=%d", e.visited.len(), e.runs, e.peeked)
}
