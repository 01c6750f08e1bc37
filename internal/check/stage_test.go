package check

// The stage pass's purity gate. A wave task's WaveReport must be a
// function of its Node alone — that is what lets the in-process engine
// and the fabric stage tasks on any worker, in any order, on a core and
// path scratch that carry state over from whatever task came before:
// the live session, the fold, the permuted chain cache, and the path
// entries, clocks and race index syncPath keeps over a shared prefix.
// This test stages every task of several explorations three ways —
// reused state in wave order with whole-path race scans, reused state
// in shuffled order with the race index, and fresh state per task — and
// requires the same reports.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cfc/internal/fleet"
)

// stageJobs are the explorations the purity gate stages: the long
// paths of the n = 3 tournaments, a crash-branching detection tree,
// and 24-permutation symmetry keys.
var stageJobs = []struct {
	name  string
	n     int
	crash bool
}{
	{"mutex/tournament(l=1,peterson)", 3, false},
	{"mutex/tournament(l=1,kessels)", 3, false},
	{"mutex/tournament(l=2)", 3, false},
	{"detection/chunked-splitter(l=1)", 3, true},
	{"mutex/ttas-lock", 4, false},
}

// explorationTasks drives one DPOR exploration through the wave split
// on a prober whose race analysis scans the whole path instead of the
// index, and returns every task it staged, in wave order, with the
// report that prober gave it.
func explorationTasks(t *testing.T, build Builder, prop Property, opts Options) ([]Node, []WaveReport) {
	t.Helper()
	m, err := NewWaveMaster(build, prop, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := newTestProber(t, build, prop, opts)
	defer p.Close()
	p.sc.scanAll = true
	var tasks []Node
	var reps []WaveReport
	for !m.Done() {
		wave := m.Wave()
		out := make([]WaveReport, len(wave))
		for i, nd := range wave {
			out[i] = probeTask(t, p, nd)
			tasks = append(tasks, Node{Schedule: slices.Clone(nd.Schedule), Sleep: nd.Sleep})
		}
		reps = append(reps, out...)
		if err := m.Commit(out); err != nil {
			t.Fatal(err)
		}
	}
	if res := m.Result(); res.Violation != nil || res.Truncated {
		t.Fatalf("exploration did not prove the job: %+v", res)
	}
	return tasks, reps
}

func newTestProber(t *testing.T, build Builder, prop Property, opts Options) *WaveProber {
	t.Helper()
	p, err := NewWaveProber(build, prop, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func probeTask(t *testing.T, p *WaveProber, nd Node) WaveReport {
	t.Helper()
	rep, err := p.ProbeWave(nd)
	if err != nil {
		t.Fatalf("at %v: %v", nd.Schedule, err)
	}
	return rep
}

// TestStagePure explores each stage job with whole-path race scans,
// then stages every task of it again with the race index: on one reused
// prober in shuffled order, and on a fresh prober per task. Both must
// report exactly what the exploration got — the index registers the
// same Masks and Comp, in the same order, as the whole-path scan, and
// no report depends on what the prober staged before.
func TestStagePure(t *testing.T) {
	if raceEnabled {
		// Each job is staged on one goroutine, so the race detector has
		// nothing to check here; it would only add about a minute to
		// the package (83 s against 26 s under -race on a 2-CPU host).
		// Sessions keep one coroutine per process across rewinds, so
		// the gate no longer slows the tests that run after it.
		t.Skip("single-goroutine purity gate; run without -race")
	}
	for _, j := range stageJobs {
		t.Run(j.name, func(t *testing.T) {
			t.Parallel()
			w, ok := fleet.ByName(j.name, j.n)
			if !ok {
				t.Fatalf("%s missing from the registry", j.name)
			}
			opts := Options{MaxDepth: 120, MaxStates: 1 << 19, CollapseSpins: true, DPOR: true, Symmetry: true,
				ExploreCrashes: j.crash, ExpectTermination: w.ExpectTermination}
			build := w.Builder(j.n)
			tasks, want := explorationTasks(t, build, w.Check, opts)

			reused := newTestProber(t, build, w.Check, opts)
			defer reused.Close()
			rng := rand.New(rand.NewSource(int64(len(tasks))))
			for _, i := range rng.Perm(len(tasks)) {
				if rep := probeTask(t, reused, tasks[i]); !reflect.DeepEqual(rep, want[i]) {
					t.Fatalf("at %v: reused prober, shuffled order, race index:\n %+v\nwave order, whole-path scans:\n %+v",
						tasks[i].Schedule, rep, want[i])
				}
			}
			for i, nd := range tasks {
				fresh := newTestProber(t, build, w.Check, opts)
				rep := probeTask(t, fresh, nd)
				fresh.Close()
				if !reflect.DeepEqual(rep, want[i]) {
					t.Fatalf("at %v: fresh prober, race index:\n %+v\nwave order, whole-path scans:\n %+v",
						nd.Schedule, rep, want[i])
				}
			}
			t.Logf("%d tasks", len(tasks))
		})
	}
}
