// Command cfcfleet drives the randomized fault-injection fleet: millions
// of seeded runs of the algorithm portfolio at large process counts,
// under bursty, skewed and crash/recovery adversaries, with statistical
// estimates of the paper's metrics and automatic promotion of any safety
// violation to a minimized, deterministically replayable regression
// artifact.
//
// Usage:
//
//	cfcfleet -seed 1 -n 32 -runs 1000                     # default scenarios
//	cfcfleet -seed 1 -scenarios crashstorm,burst,mixed -n 32 -runs 100000
//	cfcfleet -scenarios broken -runs 200 -artifacts out/   # promote a violation
//	cfcfleet -seed 1 -n 16 -runs 200 -cpuprofile fleet.prof # profile the run
//
// A dataset written with -dataset can be grepped offline without
// re-running anything:
//
//	cfcfleet -dataset out/ds -grep verdict=violation
//	cfcfleet -dataset out/ds -grep workload=mutex,scenario=burst
//	cfcfleet -dataset out/ds -grep digest=00000000deadbeef
//	cfcfleet -dataset out/ds -grep violations -limit 10
//
// Two datasets — typically the same sweep before and after a change —
// can be compared by execution digest, reporting executions only one
// side reached and digests whose verdicts flipped:
//
//	cfcfleet -diff out/before out/after
//	cfcfleet -diff -limit 20 out/before out/after
//
// -diff exits 1 when the sweeps drifted (any one-sided digest or flip),
// so CI can pin that a refactor left the explored space untouched.
//
// The process exits 1 if any safety violation was found or any scenario
// degraded (panic or budget overrun), so CI can gate on a fixed-seed
// smoke fleet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"cfc/internal/fleet"
	"cfc/internal/lode"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed      = flag.Int64("seed", 1, "fleet base seed (every run derives from it)")
		n         = flag.Int("n", 32, "processes per run")
		runs      = flag.Int("runs", 10000, "runs per (scenario, workload) cell")
		start     = flag.Int("start", 0, "first run index (resume an interrupted fleet)")
		scenarios = flag.String("scenarios", "", "comma-separated scenario names (default: all non-broken)")
		workers   = flag.Int("workers", 0, "concurrent workers per cell (0 = GOMAXPROCS)")
		maxSteps  = flag.Int("maxsteps", 0, "step budget per run (0 = 64*n+2048)")
		budget    = flag.Duration("budget", 0, "wall-clock budget per scenario (0 = none)")
		workloads = flag.String("workloads", "", "comma-separated workload name prefixes (default: all; e.g. mutex or mutex/tas)")
		dataset   = flag.String("dataset", "", "directory for a lode run-record dataset (empty = don't write)")
		artifacts = flag.String("artifacts", "", "directory for promoted violation artifacts (empty = don't write)")
		verbose   = flag.Bool("v", false, "log per-cell progress")
		list      = flag.Bool("list", false, "list scenarios and workloads, then exit")
		grep      = flag.String("grep", "", "query an existing -dataset instead of running: comma-separated verdict=/scenario=/workload=/digest= terms, plus bare 'violations'")
		diff      = flag.Bool("diff", false, "compare two datasets (the two positional args) by execution digest instead of running")
		limit     = flag.Int("limit", 0, "with -grep or -diff, cap the printed matches per category (0 = all)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfcfleet: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cfcfleet: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	if *grep != "" {
		if err := runGrep(*dataset, *grep, *limit); err != nil {
			fmt.Fprintf(os.Stderr, "cfcfleet: %v\n", err)
			return 2
		}
		return 0
	}

	if *diff {
		drifted, err := runDiff(flag.Arg(0), flag.Arg(1), *limit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfcfleet: %v\n", err)
			return 2
		}
		if drifted {
			return 1
		}
		return 0
	}

	if *list {
		fmt.Println("scenarios:")
		for _, s := range fleet.Scenarios() {
			broken := ""
			if s.Broken {
				broken = " [broken: harness validation only]"
			}
			fmt.Printf("  %-12s %s%s\n", s.Name, s.Desc, broken)
		}
		fmt.Printf("portfolio workloads at n=%d:\n", *n)
		for _, w := range fleet.Portfolio(*n) {
			fmt.Printf("  %s\n", w.Name)
		}
		return 0
	}

	opts := fleet.Options{
		Seed:     *seed,
		N:        *n,
		Runs:     *runs,
		StartRun: *start,
		Workers:  *workers,
		MaxSteps: *maxSteps,
		Budget:   *budget,
	}
	if *scenarios != "" {
		for _, name := range strings.Split(*scenarios, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Scenarios = append(opts.Scenarios, name)
			}
		}
	}
	if *workloads != "" {
		for _, name := range strings.Split(*workloads, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Workloads = append(opts.Workloads, name)
			}
		}
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	if *dataset != "" {
		w, err := lode.Create(*dataset)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfcfleet: %v\n", err)
			return 2
		}
		opts.Dataset = w
	}

	startT := time.Now()
	rep, err := fleet.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfcfleet: %v\n", err)
		return 2
	}
	if opts.Dataset != nil {
		if err := opts.Dataset.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cfcfleet: close dataset: %v\n", err)
			return 2
		}
		fmt.Printf("DATASET dir=%s records=%d\n", *dataset, opts.Dataset.Total())
	}

	for _, t := range rep.Tables() {
		fmt.Println(t.String())
	}

	// Promote violations: verify by deterministic replay, minimize, and
	// (with -artifacts) write regression artifacts.
	promoted := 0
	for _, c := range rep.Cells {
		if c.First == nil {
			continue
		}
		a, err := fleet.Promote(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfcfleet: promote %s/%s: %v\n", c.Scenario, c.Workload, err)
			continue
		}
		promoted++
		fmt.Printf("VIOLATION scenario=%s workload=%s run=%d seed=%d schedule_len=%d minimized=%v err=%q\n",
			a.Scenario, a.Workload, a.Run, a.Seed, len(a.Schedule), a.Minimized, a.Err)
		if *artifacts != "" {
			path, err := a.WriteArtifact(*artifacts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cfcfleet: write artifact: %v\n", err)
			} else {
				fmt.Printf("ARTIFACT %s\n", path)
			}
		}
	}

	for _, s := range rep.Scenarios {
		if s.Degraded {
			fmt.Printf("DEGRADED scenario=%s reason=%s\n", s.Name, s.Reason)
		}
	}

	elapsed := time.Since(startT).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("FLEET-SUMMARY seed=%d n=%d runs=%d events=%d violations=%d degraded=%d elapsed_s=%.3f runs_per_s=%.0f events_per_s=%.0f heap_mb=%.1f max_rss_mb=%.1f\n",
		rep.Seed, rep.N, rep.TotalRuns(), rep.TotalEvents(), rep.Violations(), countDegraded(rep),
		elapsed, float64(rep.TotalRuns())/elapsed, float64(rep.TotalEvents())/elapsed,
		float64(ms.HeapAlloc)/(1<<20), peakRSSMB())

	if rep.Violations() > 0 || rep.Degraded() {
		return 1
	}
	return 0
}

// runGrep queries an existing dataset: parse the -grep expression into a
// lode.Query, stream matching records as JSON lines, and print a final
// match count to stderr. Exits through the caller; never runs the fleet.
func runGrep(dir, expr string, limit int) error {
	if dir == "" {
		return fmt.Errorf("-grep needs -dataset <dir>")
	}
	q, err := parseQuery(expr)
	if err != nil {
		return err
	}
	d, err := lode.Open(dir)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	matched := 0
	if err := d.ScanQuery(q, func(r *lode.Record) bool {
		if err := enc.Encode(r); err != nil {
			return false
		}
		matched++
		return limit == 0 || matched < limit
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cfcfleet: %d of %d records matched\n", matched, d.Index.Total)
	return nil
}

// diffSide is one dataset's view of an execution digest: where it was
// first seen and with what verdict, plus how many records carried it
// (re-runs of the same schedule collapse onto one digest).
type diffSide struct {
	verdict  string
	scenario string
	workload string
	seed     int64
	run      int
	count    int
	seenInB  bool
}

// runDiff compares two datasets by execution digest — the stable key for
// "the fleet reached this interleaving" — and reports drift in both
// directions plus verdict flips (same execution, different verdict:
// either a checker change or broken determinism). Exit status is the
// caller's job; the bool return says whether any drift was found.
func runDiff(dirA, dirB string, limit int) (bool, error) {
	if dirA == "" || dirB == "" {
		return false, fmt.Errorf("-diff needs two dataset directories: cfcfleet -diff <a> <b>")
	}
	a, err := lode.Open(dirA)
	if err != nil {
		return false, fmt.Errorf("open %s: %w", dirA, err)
	}
	b, err := lode.Open(dirB)
	if err != nil {
		return false, fmt.Errorf("open %s: %w", dirB, err)
	}

	sideA := make(map[string]*diffSide)
	if err := a.ScanQuery(lode.Query{}, func(r *lode.Record) bool {
		if s, ok := sideA[r.Digest]; ok {
			s.count++
		} else {
			sideA[r.Digest] = &diffSide{
				verdict: r.Verdict, scenario: r.Scenario, workload: r.Workload,
				seed: r.Seed, run: r.Run, count: 1,
			}
		}
		return true
	}); err != nil {
		return false, err
	}

	var onlyB, flips int
	bDigests := make(map[string]bool)
	printed := map[string]int{}
	emit := func(kind, format string, args ...any) {
		printed[kind]++
		if limit == 0 || printed[kind] <= limit {
			fmt.Printf(format, args...)
		}
	}
	if err := b.ScanQuery(lode.Query{}, func(r *lode.Record) bool {
		first := !bDigests[r.Digest]
		bDigests[r.Digest] = true
		s, ok := sideA[r.Digest]
		if !ok {
			if first {
				onlyB++
				emit("only-b", "DIFF only-in-b digest=%s scenario=%s workload=%s seed=%d run=%d verdict=%s\n",
					r.Digest, r.Scenario, r.Workload, r.Seed, r.Run, r.Verdict)
			}
			return true
		}
		if !s.seenInB {
			s.seenInB = true
			if r.Verdict != s.verdict {
				flips++
				emit("flip", "DIFF verdict-flip digest=%s scenario=%s workload=%s a=%s b=%s\n",
					r.Digest, r.Scenario, r.Workload, s.verdict, r.Verdict)
			}
		}
		return true
	}); err != nil {
		return false, err
	}

	onlyA := 0
	var missing []string
	for d, s := range sideA {
		if !s.seenInB {
			onlyA++
			missing = append(missing, d)
		}
	}
	sort.Strings(missing)
	for _, d := range missing {
		s := sideA[d]
		emit("only-a", "DIFF only-in-a digest=%s scenario=%s workload=%s seed=%d run=%d verdict=%s\n",
			d, s.scenario, s.workload, s.seed, s.run, s.verdict)
	}
	for kind, n := range printed {
		if limit > 0 && n > limit {
			fmt.Fprintf(os.Stderr, "cfcfleet: %s: %d more lines suppressed by -limit\n", kind, n-limit)
		}
	}

	drift := onlyA + onlyB + flips
	fmt.Printf("DIFF-SUMMARY a=%s b=%s a_records=%d b_records=%d a_digests=%d b_digests=%d only_a=%d only_b=%d flips=%d\n",
		dirA, dirB, a.Index.Total, b.Index.Total, len(sideA), len(bDigests), onlyA, onlyB, flips)
	return drift > 0, nil
}

// parseQuery turns "verdict=violation,workload=mutex,violations" into a
// lode.Query. Terms are comma-separated key=value pairs; the bare term
// "violations" selects records carrying a replayable schedule.
func parseQuery(expr string) (lode.Query, error) {
	var q lode.Query
	for _, term := range strings.Split(expr, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		if term == "violations" {
			q.Violations = true
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok || val == "" {
			return q, fmt.Errorf("bad -grep term %q (want key=value or 'violations')", term)
		}
		switch key {
		case "verdict":
			q.Verdict = val
		case "scenario":
			q.Scenario = val
		case "workload":
			q.Workload = val
		case "digest":
			q.Digest = val
		default:
			return q, fmt.Errorf("unknown -grep key %q (verdict, scenario, workload, digest)", key)
		}
	}
	return q, nil
}

func countDegraded(rep *fleet.Report) int {
	k := 0
	for _, s := range rep.Scenarios {
		if s.Degraded {
			k++
		}
	}
	return k
}
