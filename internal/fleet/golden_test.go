package fleet

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cfc/internal/lode"
)

// goldenDigests is the committed record of every run of goldenSweeps:
// one "scenario workload run digest verdict" line per run.
const goldenDigests = "testdata/golden_digests.txt"

// goldenSweeps are the crash/recovery cells the golden test pins: a
// crashstorm sweep over the whole portfolio, whose storms crash, restart
// and force restarts, and a brokenstorm sweep whose short step budget
// packs its storms into the runs, so that two of them end in violations
// and the verdicts are pinned as well as the digests.
var goldenSweeps = []Options{
	{Seed: 13, N: 8, Runs: 3, Scenarios: []string{"crashstorm"}},
	{Seed: 2, N: 8, Runs: 40, MaxSteps: 160, Scenarios: []string{"brokenstorm"}},
}

// goldenLines runs goldenSweeps on one worker into a dataset and returns
// one line per record, sorted.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for i, opts := range goldenSweeps {
		dir := filepath.Join(t.TempDir(), fmt.Sprint("ds", i))
		w, err := lode.Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers, opts.Dataset = 1, w
		if _, err := Run(opts); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		d, err := lode.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Scan(func(r *lode.Record) bool {
			lines = append(lines, fmt.Sprintf("%s %s %d %s %s", r.Scenario, r.Workload, r.Run, r.Digest, r.Verdict))
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(lines)
	return lines
}

// TestGoldenDigests pins the fleet's executions bit for bit: every run of
// goldenSweeps must reproduce the Record.Digest and verdict committed in
// testdata. A change to a scheduler's decisions, to the simulator's event
// stream or to the digest function shows up here as a changed line, the
// same drift cfcfleet -diff reports between two datasets.
func TestGoldenDigests(t *testing.T) {
	f, err := os.Open(goldenDigests)
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
	got := goldenLines(t)
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("line %d of %d:\n got  %q\n want %q", i+1, len(want), g, w)
		}
	}
}
