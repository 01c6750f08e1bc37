package check_test

// Coverage for two robustness paths of the explorer: worker panic
// containment (a panicking algorithm body must surface as a checker
// error carrying the offending schedule prefix, not kill the process)
// and the POR profitability fallback (Options.PORAuto).

import (
	"strings"
	"testing"

	"cfc/internal/check"
	"cfc/internal/fleet"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

func nilProp(*sim.Trace) error { return nil }

// TestExplorerContainsBodyPanic explores a program whose body panics on
// a reachable interleaving (pid 1 observes pid 0's write) and requires
// Explore to return an error naming the schedule prefix — in the serial
// DFS and in DPOR's stage pass, on one stage goroutine and on several.
func TestExplorerContainsBodyPanic(t *testing.T) {
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		x := mem.Bit("x")
		procs := []sim.ProcFunc{
			func(p *sim.Proc) { p.Write(x, 1) },
			func(p *sim.Proc) {
				if p.Read(x) != 0 {
					panic("injected body panic")
				}
			},
		}
		return mem, procs, nil
	}
	for _, opts := range []check.Options{
		{MaxDepth: 16},
		{MaxDepth: 16, DPOR: true, Workers: 1},
		{MaxDepth: 16, DPOR: true, Workers: 4},
	} {
		_, err := check.Explore(build, nilProp, opts)
		if err == nil {
			t.Fatalf("dpor=%v workers=%d: Explore should report the body panic as an error", opts.DPOR, opts.Workers)
		}
		if !strings.Contains(err.Error(), "panicked expanding schedule prefix") {
			t.Fatalf("dpor=%v workers=%d: error should carry the schedule prefix, got: %v", opts.DPOR, opts.Workers, err)
		}
	}
}

// TestPORAutoFallsBackOnConflictHeavyProgram pins the profitability
// fallback on the program it was built for: tas-lock under spin
// collapsing, where sleep sets inflate the reduced exploration past the
// reference. PORAuto must discard the reduction there and report the
// reference result (byte-identical to a plain POR-off run), while a
// mostly independent program keeps its reduction.
func TestPORAutoFallsBackOnConflictHeavyProgram(t *testing.T) {
	w, ok := fleet.ByName("mutex/tas-lock", 2)
	if !ok {
		t.Fatal("mutex/tas-lock missing from the fleet registry")
	}
	opts := check.Options{MaxDepth: 120, MaxStates: 1 << 19, CollapseSpins: true, POR: true, PORAuto: true}

	auto, err := check.Explore(w.Builder(2), w.Check, opts)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Violation != nil {
		t.Fatalf("tas-lock should be safe: %v", auto.Violation.Err)
	}
	if !auto.PORDisabled {
		t.Fatalf("tas-lock under spin collapsing should fall back to the reference (states=%d reduced=%d)",
			auto.States, auto.ReducedNodes)
	}
	ref := opts
	ref.POR, ref.PORAuto = false, false
	plain, err := check.Explore(w.Builder(2), w.Check, ref)
	if err != nil {
		t.Fatal(err)
	}
	if auto.States != plain.States || auto.Runs != plain.Runs {
		t.Fatalf("PORAuto fallback differs from reference: auto %d states %d runs, ref %d states %d runs",
			auto.States, auto.Runs, plain.States, plain.Runs)
	}

	// A mostly independent program keeps its reduction.
	independent := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		regs := mem.Registers("r", 8, 2)
		procs := make([]sim.ProcFunc, 2)
		for pid := range procs {
			procs[pid] = func(p *sim.Proc) {
				r := regs[p.ID()]
				for i := 0; i < 3; i++ {
					p.Write(r, uint64(i))
				}
			}
		}
		return mem, procs, nil
	}
	res, err := check.Explore(independent, nilProp, check.Options{MaxDepth: 64, POR: true, PORAuto: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PORDisabled {
		t.Fatal("independent program should keep the reduction")
	}
	if res.ReducedNodes == 0 {
		t.Fatal("independent program should actually reduce")
	}
}
