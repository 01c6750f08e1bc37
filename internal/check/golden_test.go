package check_test

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"cfc/internal/check"
	"cfc/internal/fleet"
)

// goldenCheck is the committed record of goldenJobs: one
// "label mode states runs truncated verdict witness" line per job.
const goldenCheck = "testdata/golden_check.txt"

// goldenJob is one exploration the golden test pins.
type goldenJob struct {
	label, mode string
	build       check.Builder
	prop        check.Property
	opts        check.Options
}

// goldenJobs are the n = 2 portfolio and the n = 2 and n = 3 crash
// variants (the one-shot task entries, which crash branching changes),
// plus the deliberately racy mutex at n = 2 and 3 with and without crash
// branches, each in reference mode and in DPOR+sym mode, under cfccheck's
// default bounds.
func goldenJobs() []goldenJob {
	var js []goldenJob
	add := func(w fleet.Workload, n int, crash bool) {
		label := fmt.Sprintf("%s,n=%d", w.Name, n)
		if crash {
			label += ",crash"
		}
		for _, mode := range []string{"ref", "dpor+sym"} {
			o := check.Options{MaxDepth: 120, MaxStates: 1 << 19, CollapseSpins: true, Workers: 1, ExploreCrashes: crash}
			if w.Kind == fleet.KindTask {
				o.ExpectTermination = w.ExpectTermination
			}
			if mode == "dpor+sym" {
				o.DPOR, o.Symmetry = true, true
			}
			js = append(js, goldenJob{label: label, mode: mode, build: w.Builder(n), prop: w.Check, opts: o})
		}
	}
	for _, w := range fleet.Portfolio(2) {
		add(w, 2, false)
	}
	for _, n := range []int{2, 3} {
		for _, w := range fleet.Portfolio(n) {
			if w.Kind == fleet.KindTask {
				add(w, n, true)
			}
		}
	}
	for _, n := range []int{2, 3} {
		w, ok := fleet.ByName("broken/racy-mutex", n)
		if !ok {
			panic("broken/racy-mutex is not in the fleet registry")
		}
		add(w, n, false)
		add(w, n, true)
	}
	return js
}

// goldenLine runs one job and formats its line.
func goldenLine(t *testing.T, j goldenJob) string {
	t.Helper()
	res, err := check.Explore(j.build, j.prop, j.opts)
	if err != nil {
		t.Fatalf("%s %s: %v", j.label, j.mode, err)
	}
	verdict, witness := "ok", "-"
	if v := res.Violation; v != nil {
		verdict = "violation"
		witness = strings.Trim(strings.Join(strings.Fields(fmt.Sprint(v.Schedule)), ","), "[]")
	}
	return fmt.Sprintf("%s %s %d %d %t %s %s", j.label, j.mode, res.States, res.Runs, res.Truncated, verdict, witness)
}

// TestGoldenCheck pins state identity end to end: every goldenJobs
// exploration must reproduce the states, runs, truncation, verdict and
// witness committed in testdata. The visited sets key states by 64-bit
// digests, so a changed reference-mode line means two distinct states
// now share a digest, or a state's digest no longer follows from its
// identity alone; a changed DPOR line can also mean the reduction
// changed.
func TestGoldenCheck(t *testing.T) {
	f, err := os.Open(goldenCheck)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	jobs := goldenJobs()
	if len(jobs) != len(want) {
		t.Fatalf("%d golden jobs, %d committed lines", len(jobs), len(want))
	}
	for i, j := range jobs {
		if got := goldenLine(t, j); got != want[i] {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, got, want[i])
		}
	}
}
