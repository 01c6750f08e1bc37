package cfc_test

// Runnable godoc examples for the cfc facade. `go test ./...` executes
// them and compares outputs, so the README's quickstart snippets stay
// honest: these are the same calls, kept compiling and kept correct.

import (
	"fmt"

	"cfc"
)

// ExampleRun drives one deterministic run: two processes share an 8-bit
// register, the Sequential scheduler runs them to completion one at a
// time (process 0 first), and the trace records every atomic event of
// the interleaving.
func ExampleRun() {
	mem := cfc.NewMemory(cfc.AtomicRegisters)
	x := mem.Register("x", 8)
	writer := func(p *cfc.Proc) { p.Write(x, 7) }
	reader := func(p *cfc.Proc) { fmt.Println("reader saw", p.Read(x)) }

	res, err := cfc.Run(cfc.Config{
		Mem:   mem,
		Procs: []cfc.ProcFunc{writer, reader},
		Sched: cfc.Sequential{},
	})
	if err != nil || res.Err != nil {
		fmt.Println("run failed:", err, res.Err)
		return
	}
	fmt.Println("stop:", res.Trace.Stop)
	fmt.Println("scheduled steps:", res.Trace.ScheduledSteps)
	// Output:
	// reader saw 7
	// stop: all-done
	// scheduled steps: 2
}

// ExampleExplore model-checks a tiny program exhaustively: two processes
// each perform a single write, so there are exactly two maximal
// interleavings and three non-terminal states (the initial state and one
// per first writer). This is the unreduced reference engine, which
// explores on the calling goroutine and ignores Workers; only the DPOR
// engine's stage pass uses it, with identical results at any count.
func ExampleExplore() {
	build := func() (*cfc.Memory, []cfc.ProcFunc, error) {
		mem := cfc.NewMemory(cfc.AtomicRegisters)
		x := mem.Register("x", 8)
		body := func(p *cfc.Proc) { p.Write(x, uint64(p.ID()+1)) }
		return mem, []cfc.ProcFunc{body, body}, nil
	}
	// The property holds trivially here; real callers pass
	// cfc.CheckMutualExclusion, cfc.CheckUniqueOutputs, ...
	res, err := cfc.Explore(build, cfc.CheckMutualExclusion, cfc.CheckOptions{
		MaxDepth: 20,
		Workers:  2,
	})
	if err != nil {
		fmt.Println("explore failed:", err)
		return
	}
	fmt.Println("states:", res.States)
	fmt.Println("runs:", res.Runs)
	fmt.Println("violation found:", res.Violation != nil)
	// Output:
	// states: 3
	// runs: 2
	// violation found: false
}

// ExampleExplore_reduction shows partial-order reduction at work: two
// processes write three values each to private registers, so every
// interleaving permutes commuting steps. The reference exploration walks
// the full 4x4 lattice of positions; with CheckOptions.POR the explorer
// proves the same verdict along a single ample order, and the ratio of
// the two state counts is the reduction cfccheck -pordiff reports per
// portfolio entry.
func ExampleExplore_reduction() {
	build := func() (*cfc.Memory, []cfc.ProcFunc, error) {
		mem := cfc.NewMemory(cfc.AtomicRegisters)
		a := mem.Register("a", 8)
		b := mem.Register("b", 8)
		body := func(r cfc.Reg) cfc.ProcFunc {
			return func(p *cfc.Proc) {
				for i := 0; i < 3; i++ {
					p.Write(r, uint64(i+1))
				}
			}
		}
		return mem, []cfc.ProcFunc{body(a), body(b)}, nil
	}
	prop := func(*cfc.Trace) error { return nil }
	ref, err := cfc.Explore(build, prop, cfc.CheckOptions{MaxDepth: 20})
	if err != nil {
		fmt.Println("explore failed:", err)
		return
	}
	por, err := cfc.Explore(build, prop, cfc.CheckOptions{MaxDepth: 20, POR: true})
	if err != nil {
		fmt.Println("explore failed:", err)
		return
	}
	fmt.Printf("reference: %d states, %d runs\n", ref.States, ref.Runs)
	fmt.Printf("reduced:   %d states, %d run\n", por.States, por.Runs)
	fmt.Printf("reduction: %.1fx\n", float64(ref.States)/float64(por.States))
	// Output:
	// reference: 15 states, 2 runs
	// reduced:   6 states, 1 run
	// reduction: 2.5x
}
