package check

// Symmetry-reduction unit tests, inside the package so they can drive
// the digest machinery directly:
//
//   - the identity permutation's digest must equal mix64(stateHash,
//     sleep) — the key the unsymmetrised explorers use — for any state
//     and sleep mask (canonicalKey relies on this to skip computing the
//     identity digest);
//   - canonical keys must be invariant under pid permutation: replaying
//     a permuted schedule reaches a state in the same orbit, which must
//     produce the same canonical key, for every permutation of the
//     group and every declaring portfolio algorithm (claim-only
//     programs, per-pid register families, pid-valued registers, and
//     the packed word whose full-width reads remap as a composite);
//   - programs that do NOT declare symmetry — distinct per-pid bodies —
//     must never be collapsed: the symmetry context is nil and an
//     exploration with Options.Symmetry explores exactly the states of
//     one without.

import (
	"math/rand"
	"testing"

	"cfc/internal/contention"
	"cfc/internal/driver"
	"cfc/internal/metrics"
	"cfc/internal/mutex"
	"cfc/internal/naming"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// symJob is one declaring program whose canonical keys are checked for
// permutation invariance.
type symJob struct {
	name  string
	n     int
	build Builder
}

func symMutexBuild(alg mutex.Algorithm, n int) Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(alg.Model())
		inst, err := alg.New(mem, n)
		if err != nil {
			return nil, nil, err
		}
		procs := make([]sim.ProcFunc, n)
		for pid := range procs {
			procs[pid] = driver.MutexBody(inst, 1, 0)
		}
		return mem, procs, nil
	}
}

func symTaskBuild(model opset.Model, n int, makeInst func(mem *sim.Memory) (driver.TaskRunner, error)) Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(model)
		inst, err := makeInst(mem)
		if err != nil {
			return nil, nil, err
		}
		procs := make([]sim.ProcFunc, n)
		for pid := range procs {
			procs[pid] = driver.TaskBody(inst)
		}
		return mem, procs, nil
	}
}

func symJobs() []symJob {
	// lamport-fast and lamport-packed are deliberately absent: their
	// fixed-order scan of the b family makes intermediate states
	// non-symmetric, so the constructors declare nothing (see
	// mutex/lamport.go) and TestAsymmetricProgramNeverCollapsed-style
	// behaviour applies instead.
	return []symJob{
		{"tas-lock/n=3", 3, symMutexBuild(mutex.TASLock{}, 3)},     // claim-only: no pids in memory
		{"ttas-lock/n=3", 3, symMutexBuild(mutex.TTASLock{}, 3)},   // claim-only, read-heavy spins
		{"peterson-2p/n=2", 2, symMutexBuild(mutex.Peterson{}, 2)}, // flag family + exact pid-valued turn
		{"splitter/n=3", 3, symTaskBuild(contention.Splitter{}.Model(), 3, func(mem *sim.Memory) (driver.TaskRunner, error) {
			return contention.Splitter{}.New(mem, 3)
		})},
		{"taf-tree/n=2", 2, symTaskBuild(naming.TAFTree{}.Model(), 2, func(mem *sim.Memory) (driver.TaskRunner, error) {
			return naming.TAFTree{}.New(mem, 2)
		})},
	}
}

// randomWalk extends the empty schedule with uniformly chosen live-pid
// steps (and the occasional crash) until the program terminates or
// maxLen decisions are taken.
func randomWalk(t *testing.T, c *replayCore, rng *rand.Rand, maxLen int) []int {
	t.Helper()
	var sched []int
	for len(sched) < maxLen {
		_, live, err := c.stateAt(sched)
		if err != nil {
			t.Fatalf("walk %v: %v", sched, err)
		}
		if len(live) == 0 {
			break
		}
		pid := live[rng.Intn(len(live))]
		if rng.Intn(10) == 0 && !crashedIn(sched, pid) {
			sched = append(sched, -pid-1)
			continue
		}
		sched = append(sched, pid)
	}
	return sched
}

// permSchedule applies a pid permutation to a schedule in the Decisions
// encoding (entry >= 0 steps that pid, -pid-1 crashes it).
func permSchedule(sched []int, perm []int) []int {
	out := make([]int, len(sched))
	for i, d := range sched {
		if d >= 0 {
			out[i] = perm[d]
		} else {
			out[i] = -perm[-d-1] - 1
		}
	}
	return out
}

// keyAt replays the schedule and returns (canonical key, identity key,
// state hash) for the resulting state.
func keyAt(t *testing.T, c *replayCore, sy *symCanon, sched []int, sleep uint64) (uint64, uint64, uint64) {
	t.Helper()
	if _, _, err := c.stateAt(sched); err != nil {
		t.Fatalf("replay %v: %v", sched, err)
	}
	base := c.stateHash()
	return c.canonicalKey(sy, base, sleep), mix64(base, sleep), base
}

// TestSymDigestIdentityMatchesStateHash pins the construction invariant
// canonicalKey leans on: the identity permutation's digest equals
// mix64(stateHash, sleep), for arbitrary states and sleep masks.
func TestSymDigestIdentityMatchesStateHash(t *testing.T) {
	for _, j := range symJobs() {
		j := j
		t.Run(j.name, func(t *testing.T) {
			var c replayCore
			if err := c.init(j.build, 200, true); err != nil {
				t.Fatal(err)
			}
			defer c.close()
			sy := newSymCanon(c.mem, j.n)
			if sy == nil {
				t.Fatal("no symmetry context for a declaring program")
			}
			rng := rand.New(rand.NewSource(7))
			for walk := 0; walk < 10; walk++ {
				sched := randomWalk(t, &c, rng, 30)
				for _, sleep := range []uint64{0, 1, (1 << uint(j.n)) - 1} {
					if _, _, err := c.stateAt(sched); err != nil {
						t.Fatal(err)
					}
					base := c.stateHash()
					got, ok := c.symDigest(sy, 0, sleep)
					if !ok {
						t.Fatalf("identity digest unmappable at %v", sched)
					}
					if want := mix64(base, sleep); got != want {
						t.Fatalf("identity digest %#x != mix64(stateHash, sleep) %#x at %v sleep %#x",
							got, want, sched, sleep)
					}
				}
			}
		})
	}
}

// TestCanonicalKeyPermutationInvariant is the satellite-3 gate: for
// every declaring algorithm and every permutation of the group,
// replaying a permuted schedule must produce the same canonical key as
// the original — pid families relocate, pid-valued observations
// rewrite, histories permute slots, and the minimum over the group is
// unchanged.
func TestCanonicalKeyPermutationInvariant(t *testing.T) {
	for _, j := range symJobs() {
		j := j
		t.Run(j.name, func(t *testing.T) {
			var c replayCore
			if err := c.init(j.build, 200, true); err != nil {
				t.Fatal(err)
			}
			defer c.close()
			sy := newSymCanon(c.mem, j.n)
			if sy == nil {
				t.Fatal("no symmetry context for a declaring program")
			}
			rng := rand.New(rand.NewSource(11))
			for walk := 0; walk < 25; walk++ {
				sched := randomWalk(t, &c, rng, 36)
				sleep := uint64(rng.Intn(1 << uint(j.n)))
				key, idKey, _ := keyAt(t, &c, sy, sched, 0)
				skey, _, _ := keyAt(t, &c, sy, sched, sleep)
				if key > idKey {
					t.Fatalf("canonical key %#x above identity key %#x at %v", key, idKey, sched)
				}
				for k := 1; k < len(sy.perms); k++ {
					psched := permSchedule(sched, sy.perms[k])
					pkey, _, _ := keyAt(t, &c, sy, psched, 0)
					if pkey != key {
						t.Fatalf("perm %v: canonical key %#x != %#x\n  schedule %v\n  permuted %v",
							sy.perms[k], pkey, key, sched, psched)
					}
					// Sleep sets travel with the state: the permuted state
					// with the permuted sleep mask has the same key.
					pskey, _, _ := keyAt(t, &c, sy, psched, remapPidMask(sleep, sy.perms[k]))
					if pskey != skey {
						t.Fatalf("perm %v sleep %#x: canonical key %#x != %#x at %v",
							sy.perms[k], sleep, pskey, skey, sched)
					}
				}
			}
		})
	}
}

// TestAsymmetricProgramNeverCollapsed: a program whose processes run
// DISTINCT bodies declares nothing, so the symmetry context must be nil
// and Options.Symmetry must change neither the verdict nor a single
// state count — pid-distinct states are never identified.
func TestAsymmetricProgramNeverCollapsed(t *testing.T) {
	// Three distinct bodies over one shared register: pid p writes p+10
	// exactly p+1 times. Any pid permutation of a reachable state is
	// distinguishable by the register value and histories.
	build := func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		x := mem.Register("x", 8)
		procs := make([]sim.ProcFunc, 3)
		for pid := range procs {
			pid := pid
			procs[pid] = func(p *sim.Proc) {
				for i := 0; i <= pid; i++ {
					p.Write(x, uint64(pid+10))
				}
			}
		}
		return mem, procs, nil
	}
	var c replayCore
	if err := c.init(build, 64, false); err != nil {
		t.Fatal(err)
	}
	if sy := newSymCanon(c.mem, 3); sy != nil {
		t.Fatal("symmetry context built for a program that declared none")
	}
	c.close()

	plain, err := Explore(build, func(*sim.Trace) error { return nil }, Options{MaxDepth: 64, DPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := Explore(build, func(*sim.Trace) error { return nil }, Options{MaxDepth: 64, DPOR: true, Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if sym.SymmetryApplied {
		t.Error("SymmetryApplied reported without a declaration")
	}
	if sym.States != plain.States || sym.Runs != plain.Runs {
		t.Errorf("asymmetric program collapsed: %d states %d runs with Symmetry, %d states %d runs without",
			sym.States, sym.Runs, plain.States, plain.Runs)
	}
}

// TestKesselsDeclaresNoSymmetry pins the deliberate non-declaration:
// Kessels's two sides run mirror-image code with side-dependent XOR
// targets, so Peterson declares and Kessels must not.
func TestKesselsDeclaresNoSymmetry(t *testing.T) {
	mem := sim.NewMemory(mutex.Kessels{}.Model())
	if _, err := (mutex.Kessels{}).New(mem, 2); err != nil {
		t.Fatal(err)
	}
	if mem.Symmetry() != nil {
		t.Fatal("kessels-2p declared symmetry despite side-dependent code")
	}
	res, err := Explore(symMutexBuild(mutex.Kessels{}, 2), metrics.CheckMutualExclusion,
		Options{MaxDepth: 120, CollapseSpins: true, DPOR: true, Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SymmetryApplied {
		t.Error("SymmetryApplied reported for kessels-2p")
	}
	if res.Violation != nil {
		t.Errorf("kessels-2p misreported: %v", res.Violation)
	}
}

// TestSymmetryReducesSymmetricExploration: the reduction must actually
// reduce — on a symmetric program a Symmetry exploration visits
// strictly fewer states than the same DPOR exploration without, and
// both verdicts agree.
func TestSymmetryReducesSymmetricExploration(t *testing.T) {
	for _, j := range symJobs() {
		j := j
		t.Run(j.name, func(t *testing.T) {
			opts := Options{MaxDepth: 400, CollapseSpins: true, DPOR: true}
			plain, err := Explore(j.build, func(*sim.Trace) error { return nil }, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Symmetry = true
			sym, err := Explore(j.build, func(*sim.Trace) error { return nil }, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sym.SymmetryApplied {
				t.Fatal("SymmetryApplied not reported for a declaring program")
			}
			if sym.Truncated != plain.Truncated {
				t.Fatalf("truncation disagreement: %v vs %v", sym.Truncated, plain.Truncated)
			}
			if sym.States >= plain.States {
				t.Errorf("symmetry did not reduce: %d states with, %d without", sym.States, plain.States)
			}
			t.Logf("states: %d without symmetry, %d with (%.2fx)",
				plain.States, sym.States, float64(plain.States)/float64(sym.States))
		})
	}
}
