package check_test

// Differential fuzzing of DPOR against the reference: random
// straight-line micro-programs (2-3 processes, mixed bit/word
// operations, optional crash exploration) are checked three ways —
// unreduced reference, source-DPOR, and DPOR with symmetry reduction —
// and both DPOR configurations must reach the reference's verdict in
// both directions, every reported witness must replay to a real
// violation on a fresh program instance, and the reductions must stay
// within the sleep-set bound on visited states. A final pass pins the
// determinism contract of the parallel DPOR engine: Workers=4 must
// reproduce the serial result bit for bit, counterexample included.
//
// Exact agreement is what the harness requires, and only of these
// programs, which are loop-free and carry no phase marks (each process
// ends with an output). Even there it is not a theorem: coverage-guided
// fuzzing finds programs on which DPOR misses a violation the reference
// finds — the input "90010017007001010" is one — and such an input is
// not pinned in testdata/fuzz while it fails (mutant_test.go pins the
// reference's refutation of that one). Nor does the harness make
// DPOR sound in general: mutant_test.go holds two broken locks, with
// spin loops and phase marks, that the reference refutes and DPOR
// proves.
//
// The generator is a byte-string decoder so the same programs drive
// both the deterministic seeded test (always on, fixed rng) and the
// opt-in coverage-guided fuzzer (go test -fuzz=FuzzDPORDifferential).
// Programs are loop-free, so every state space is finite without spin
// collapsing and the reference exploration is exact.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cfc/internal/check"
	"cfc/internal/metrics"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// fuzzModel allows every operation the generator can emit: the eight
// single-bit RMW operations plus word-granularity reads and writes.
var fuzzModel = opset.RMW.With(opset.ReadWord, opset.WriteWord)

// fuzzOp is one decoded instruction of a micro-program. reg indexes the
// bit or word register file (wrapped at build time); val is an
// immediate whose interpretation depends on the kind.
type fuzzOp struct {
	kind byte
	reg  byte
	val  byte
}

// Instruction kinds. Accumulator-flavoured kinds thread a per-process
// local value through the program so later behaviour is data-dependent
// on earlier observations — the interesting case for a dynamic
// reduction, because independence then varies along the path.
const (
	fopBitRead  byte = iota // acc = read bit
	fopBitWrite             // write bit val&1
	fopTAS                  // acc = test-and-set
	fopTAR                  // acc = test-and-reset
	fopTAF                  // acc = test-and-flip
	fopFlip                 // flip (no return)
	fopSkip                 // skip (touch without reading)
	fopWordRead             // acc = read word
	fopWordImm              // write word immediate
	fopWordAcc              // write word from accumulator
	fopLocal                // local computation step
	fopExitIf               // if acc != 0 { output val&3; return }
	fopKinds                // count — keep last
)

// fuzzProgram is a decoded micro-program: a tiny shared memory plus one
// straight-line instruction sequence per process.
type fuzzProgram struct {
	nprocs   int
	crashes  bool     // explore crash-restart schedules
	uniform  bool     // all processes run progs[0]; declared pid-symmetric
	bitInit  []uint64 // initial value of each bit register
	wordW    []int    // width of each word register (bits)
	wordInit []uint64
	progs    [][]fuzzOp // progs[p] for process p; progs[0] only when uniform
}

// decodeFuzzProgram derives a micro-program from raw fuzz bytes, or
// returns nil when the input is too short to be interesting. The
// decoder wraps around the input, so every sufficiently long byte
// string decodes to some program and the fuzzer wastes no inputs.
func decodeFuzzProgram(data []byte) *fuzzProgram {
	if len(data) < 8 {
		return nil
	}
	i := 0
	next := func() byte {
		// Mix the cursor in so wrapped reads do not just repeat the
		// input; the stream stays a pure function of data.
		b := data[i%len(data)] + byte(i/len(data)*37)
		i++
		return b
	}
	fp := &fuzzProgram{}
	b := next()
	fp.nprocs = 2 + int(b&1)
	fp.crashes = b&2 != 0
	fp.uniform = b&4 != 0
	fp.bitInit = make([]uint64, 1+int(next()&1))
	for j := range fp.bitInit {
		fp.bitInit[j] = uint64(next() & 1)
	}
	nwords := 1 + int(next()&1)
	for j := 0; j < nwords; j++ {
		b := next()
		w := 2 + int(b&1)
		fp.wordW = append(fp.wordW, w)
		fp.wordInit = append(fp.wordInit, uint64(b>>1)&(1<<uint(w)-1))
	}
	nprogs := fp.nprocs
	if fp.uniform {
		nprogs = 1
	}
	for p := 0; p < nprogs; p++ {
		n := 2 + int(next()&3)
		prog := make([]fuzzOp, n)
		for j := range prog {
			prog[j] = fuzzOp{kind: next() % fopKinds, reg: next(), val: next()}
		}
		fp.progs = append(fp.progs, prog)
	}
	return fp
}

// String renders the program compactly so a failing case is
// reconstructible from the test log alone.
func (fp *fuzzProgram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d crashes=%v uniform=%v bits=%v words=%v/%v",
		fp.nprocs, fp.crashes, fp.uniform, fp.bitInit, fp.wordW, fp.wordInit)
	for p, prog := range fp.progs {
		fmt.Fprintf(&sb, " P%d:", p)
		for _, in := range prog {
			fmt.Fprintf(&sb, "[%d r%d v%d]", in.kind, in.reg, in.val)
		}
	}
	return sb.String()
}

// builder returns the check.Builder for the program. Process bodies are
// pure functions of the shared state they observe — in particular the
// uniform variant never consults p.ID(), which is what makes its
// DeclareSymmetric claim sound.
func (fp *fuzzProgram) builder() check.Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(fuzzModel)
		bits := make([]sim.Reg, len(fp.bitInit))
		for j, v := range fp.bitInit {
			bits[j] = mem.BitInit(fmt.Sprintf("b%d", j), v)
		}
		words := make([]sim.Reg, len(fp.wordW))
		for j, w := range fp.wordW {
			words[j] = mem.RegisterInit(fmt.Sprintf("w%d", j), w, fp.wordInit[j])
		}
		if fp.uniform {
			mem.DeclareSymmetric(fp.nprocs)
		}
		procs := make([]sim.ProcFunc, fp.nprocs)
		for pid := range procs {
			prog := fp.progs[0]
			if !fp.uniform {
				prog = fp.progs[pid]
			}
			id := pid
			procs[pid] = func(p *sim.Proc) {
				var acc uint64
				for _, in := range prog {
					br := bits[int(in.reg)%len(bits)]
					wr := words[int(in.reg)%len(words)]
					switch in.kind {
					case fopBitRead:
						acc = p.Read(br)
					case fopBitWrite:
						p.Write(br, uint64(in.val&1))
					case fopTAS:
						acc = p.TestAndSet(br)
					case fopTAR:
						acc = p.TestAndReset(br)
					case fopTAF:
						acc = p.TestAndFlip(br)
					case fopFlip:
						p.Flip(br)
					case fopSkip:
						p.Skip(br)
					case fopWordRead:
						acc = p.Read(wr)
					case fopWordImm:
						p.Write(wr, uint64(in.val)&(1<<uint(fp.wordW[int(in.reg)%len(words)])-1))
					case fopWordAcc:
						p.Write(wr, acc&(1<<uint(fp.wordW[int(in.reg)%len(words)])-1))
					case fopLocal:
						p.Local()
					case fopExitIf:
						if acc != 0 {
							p.Output(uint64(in.val & 3))
							return
						}
					}
				}
				if fp.uniform {
					// No pid in the output: keeps the symmetry claim
					// sound and makes duplicate outputs — violations of
					// the uniqueness property — reachable.
					p.Output(acc & 3)
				} else {
					p.Output((acc + uint64(id)) & 3)
				}
			}
		}
		return mem, procs, nil
	}
}

// fuzzMaxStates bounds the reference exploration; programs whose exact
// state space exceeds it are skipped rather than compared truncated,
// because truncation cuts the two sides at different frontiers.
const fuzzMaxStates = 1 << 15

// runDPORDifferential is the shared body of the seeded test and the
// fuzz target: decode, explore every configuration, cross-check.
func runDPORDifferential(t *testing.T, data []byte) {
	fp := decodeFuzzProgram(data)
	if fp == nil {
		return
	}
	build := fp.builder()
	prop := metrics.CheckUniqueOutputs
	base := check.Options{
		MaxDepth:       64,
		MaxStates:      fuzzMaxStates,
		ExploreCrashes: fp.crashes,
		Workers:        1,
	}
	ref, err := check.Explore(build, prop, base)
	if err != nil {
		t.Fatalf("reference: %v\nprogram: %s", err, fp)
	}
	if ref.Truncated {
		t.Skipf("state space exceeds %d states: %s", fuzzMaxStates, fp)
	}
	if ref.Violation != nil && !witnessReplays(t, build, prop, base, ref.Violation.Schedule) {
		t.Fatalf("reference witness %v did not replay\nprogram: %s", ref.Violation.Schedule, fp)
	}

	// On these programs DPOR (with and without symmetry) must agree
	// with the reference exactly: find every violation it finds, and
	// invent none. The corpus entry in testdata/fuzz is a program on
	// which a reduction that reads only pending steps misses a
	// violation.
	variants := []struct {
		name string
		opts func(o check.Options) check.Options
	}{
		{"dpor", func(o check.Options) check.Options {
			o.DPOR = true
			return o
		}},
		{"dpor+sym", func(o check.Options) check.Options {
			o.DPOR, o.Symmetry = true, true
			return o
		}},
	}
	var (
		symRes check.Result
		symOK  bool
	)
	for _, v := range variants {
		opts := v.opts(base)
		res, err := check.Explore(build, prop, opts)
		if err != nil {
			t.Fatalf("%s: %v\nprogram: %s", v.name, err, fp)
		}
		if res.Truncated {
			t.Errorf("%s truncated where the reference completed\nprogram: %s", v.name, fp)
			continue
		}
		switch {
		case res.Violation != nil && ref.Violation == nil:
			t.Errorf("%s reported a violation the reference refutes\nprogram: %s", v.name, fp)
			continue
		case res.Violation == nil && ref.Violation != nil:
			t.Errorf("%s missed the violation the reference finds\nprogram: %s", v.name, fp)
			continue
		}
		if res.Violation != nil && !witnessReplays(t, build, prop, opts, res.Violation.Schedule) {
			t.Errorf("%s witness %v did not replay\nprogram: %s", v.name, res.Violation.Schedule, fp)
		}
		// The reduced explorers key the visited set by (state, sleep
		// set), so one reference state can legitimately split into
		// several entries — States <= ref.States is NOT a theorem for
		// stateful sleep-set DPOR (and this harness found programs
		// where it fails). What is a theorem: at most one entry per
		// sleep subset of the processes, i.e. a 2^nprocs factor.
		if res.Violation == nil && res.States > ref.States<<uint(fp.nprocs) {
			t.Errorf("%s explored %d states, beyond the sleep-set bound %d<<%d of the reference\nprogram: %s",
				v.name, res.States, ref.States, fp.nprocs, fp)
		}
		if v.name == "dpor+sym" {
			symRes, symOK = res, true
		}
	}
	if !symOK {
		return // already reported above; no serial baseline to compare
	}

	// Determinism of the parallel engine: same result, bit for bit, at
	// Workers=4 — violating and non-violating programs alike.
	popts := variants[1].opts(base)
	popts.Workers = 4
	par, err := check.Explore(build, prop, popts)
	if err != nil {
		t.Fatalf("dpor+sym workers=4: %v\nprogram: %s", err, fp)
	}
	assertSameResult(t, symRes, par, "dpor+sym workers=4")
}

// TestDPORDifferentialSeeded runs the differential harness over a fixed
// pseudo-random corpus on every plain `go test` run, so the DPOR
// soundness contract is exercised without -fuzz.
func TestDPORDifferentialSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(0x51EDC0DE))
	for c := 0; c < 48; c++ {
		data := make([]byte, 8+rng.Intn(33))
		rng.Read(data)
		t.Run(fmt.Sprintf("case%02d", c), func(t *testing.T) {
			runDPORDifferential(t, data)
		})
	}
}

// FuzzDPORDifferential is the coverage-guided entry point:
//
//	go test ./internal/check -fuzz=FuzzDPORDifferential -fuzztime=30s
func FuzzDPORDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(0xD1FF))
	for c := 0; c < 8; c++ {
		data := make([]byte, 8+rng.Intn(33))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDPORDifferential(t, data)
	})
}
