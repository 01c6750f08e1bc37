package check

// Internal gate for the serial explorer's sibling batch peek: the peek
// must actually fire (visited siblings skipped without a replay) and the
// exploration it prunes must stay bit-identical — same States, Runs and
// verdict — to the parallel explorer, which has no peek and therefore
// replays every child the old way.

import (
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
		visited:   make(map[uint64]struct{}),
	}
	if err := e.core.init(peekBuilder(3), e.maxDepth, opts.CollapseSpins); err != nil {
		t.Fatal(err)
	}
	e.provider, e.por = newProvider(opts, 3)
	if err := e.dfs(nil, 0); err != nil {
		t.Fatal(err)
	}
	e.core.close()
	if e.peeked == 0 {
		t.Fatal("sibling peek never skipped a replay on a state-sharing program")
	}
	if e.violation != nil {
		t.Fatalf("unexpected violation: %v", e.violation)
	}

	// The unpeeked parallel explorer is the reference.
	popts := opts
	popts.Workers = 2
	ref, err := exploreParallel(peekBuilder(3), prop, popts, e.maxDepth, e.maxStates)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Truncated || e.truncated {
		t.Fatalf("truncated: serial=%v parallel=%v", e.truncated, ref.Truncated)
	}
	if len(e.visited) != ref.States || e.runs != ref.Runs {
		t.Fatalf("peeked serial exploration diverged: states %d vs %d, runs %d vs %d",
			len(e.visited), ref.States, e.runs, ref.Runs)
	}
	t.Logf("states=%d runs=%d peeked=%d", len(e.visited), e.runs, e.peeked)
}
