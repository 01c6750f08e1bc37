// Command cfccheck model-checks the repository's algorithms exhaustively
// for small process counts: every interleaving (optionally with crash
// injection) is explored and the relevant safety property verified on
// every reachable state.
//
// Usage:
//
//	cfccheck                      # check everything at n = 2, all cores
//	cfccheck -n 3                 # n = 3 (slower)
//	cfccheck -kind mutex          # only mutual exclusion
//	cfccheck -kind naming -crash  # naming with crash injection
//	cfccheck -workers 1           # serial exploration
//	cfccheck -dpor=false          # static ample-set POR instead of DPOR
//	cfccheck -dpor=false -por=false  # unreduced reference exploration
//	cfccheck -sym=false           # DPOR without symmetry reduction
//	cfccheck -only splitter       # jobs whose name contains "splitter"
//	cfccheck -pordiff             # three-way reduction differential gate
//	cfccheck -serve :9401         # coordinate the portfolio over the fabric
//	cfccheck -join host:9401      # join a coordinator as a worker
//	cfccheck -serve :9401 -shards 2              # DPOR jobs as distributed waves (slower)
//	cfccheck -n 3 -cpuprofile check.prof          # profile the run
//
// The job list is the fleet's workload registry (internal/fleet): the
// same named programs cmd/cfcfleet storms at n = 16-64 are proved here
// exhaustively at small n, including the mixed mutex+naming workloads.
//
// -workers selects the explorer parallelism per job (default: all
// cores). Explorations report identical states, runs and verdicts at
// any worker count; see check.Options.Workers.
//
// -dpor (default on) selects dynamic partial-order reduction
// (source-DPOR, check/dpor.go) with pid-symmetry canonicalisation of
// the visited set (-sym=false turns the latter off; it only engages on
// programs that declare a symmetry group anyway). -dpor=false falls
// back to the static ample-set POR of earlier revisions, and
// additionally -por=false to the exhaustive reference mode.
//
// -pordiff runs every job three ways — unreduced reference, static
// POR, and DPOR(+symmetry per -sym) — and fails unless all verdicts
// agree (replaying every witness when a violation is found), printing
// one machine-parseable line per job with state counts, wall-clock and
// reduction ratios — the soundness gate CI runs on the portfolio.
//
// -serve and -join run the same portfolio over the distributed check
// fabric (internal/fabric): the coordinator owns the job queue, workers
// pull jobs over TCP, and the merged rows are byte-identical to the
// single-process output (plus one FABRIC-SUMMARY trailer line). With
// -shards > 1 each DPOR job is split across all connected workers as
// distributed expansion waves whose serial commit stays at the
// coordinator; every other job still travels whole. Each wave is a
// round trip and a barrier, so waves are slower than whole jobs: the
// n = 3 DPOR portfolio with two workers on one 2-CPU host took
// 4.73-4.79 s with -shards 2 and 0.96-1.09 s without. The summary line
// reports the wave probers' locality counters (events_replayed/
// events_saved, in schedule decisions — the saved column is replay work
// a root-replaying prober would have done).
// Job flags (-n, -kind, -depth, ...) are the coordinator's; workers
// need none.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cfc/internal/check"
	"cfc/internal/fabric"
	"cfc/internal/fleet"
)

func main() {
	os.Exit(run())
}

type job struct {
	name  string
	n     int
	build check.Builder
	prop  check.Property
	opts  check.Options
}

func run() int {
	var (
		n        = flag.Int("n", 2, "process count")
		kind     = flag.String("kind", "", "what to check: mutex, detection, naming, mixed (empty = all)")
		crash    = flag.Bool("crash", false, "inject crashes (naming and detection)")
		depth    = flag.Int("depth", 120, "schedule depth bound")
		states   = flag.Int("states", 1<<19, "state budget")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel explorer workers per job (1 = serial)")
		collapse = flag.Bool("collapse", true, "collapse pure spin-wait cycles into one state (-collapse=false explores the raw transition graph)")
		por      = flag.Bool("por", true, "with -dpor=false: static partial-order reduction (-por=false = unreduced reference mode)")
		porauto  = flag.Bool("porauto", true, "with -dpor=false: fall back to the unreduced exploration when the static reduction is unprofitable")
		dpor     = flag.Bool("dpor", true, "dynamic partial-order reduction (source-DPOR; -dpor=false selects the static -por path)")
		sym      = flag.Bool("sym", true, "with -dpor: canonicalise the visited set under declared pid symmetry")
		only     = flag.String("only", "", "only jobs whose name contains this substring")
		pordiff  = flag.Bool("pordiff", false, "three-way differential gate: reference vs static POR vs DPOR, require agreeing verdicts, report reduction ratios")

		serve      = flag.String("serve", "", "coordinate the portfolio over the distributed fabric, listening at this TCP address")
		join       = flag.String("join", "", "join a fabric coordinator at this TCP address as a worker")
		shards     = flag.Int("shards", 0, "with -serve: >1 splits each DPOR job across the workers as expansion waves (other jobs travel whole); a wave costs a round trip and a barrier, so this is slower than whole jobs unless one job outgrows a worker")
		jobtimeout = flag.Duration("jobtimeout", 5*time.Minute, "with -serve: abandon (DEGRADED) a job not completed this long after dispatch (0 = never)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfccheck: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cfccheck: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	if *join != "" {
		// A worker needs no job list: the coordinator names the work and
		// the shared fleet registry resolves it.
		if err := fabric.Work(fabric.TCP{}, *join, fleetRegistry, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "cfccheck: %v\n", err)
			return 1
		}
		return 0
	}

	// The jobs come from the fleet's workload registry: the model checker
	// proves at small n exactly the programs the randomized fleet
	// (cmd/cfcfleet) storms at n = 16-64.
	var jobs []job
	for _, w := range fleet.Portfolio(*n) {
		kindName := w.Name[:strings.IndexByte(w.Name, '/')]
		if *kind != "" && *kind != kindName {
			continue
		}
		if *only != "" && !strings.Contains(w.Name, *only) {
			continue
		}
		opts := check.Options{
			MaxDepth: *depth, MaxStates: *states,
			CollapseSpins: *collapse, POR: *por, PORAuto: *porauto,
			DPOR: *dpor, Symmetry: *dpor && *sym,
			Workers: *workers,
		}
		if w.Kind == fleet.KindTask {
			// One-shot tasks admit crash branching; a crashed spinning
			// mutex process would deadlock the rest instead.
			opts.ExploreCrashes = *crash
			opts.ExpectTermination = w.ExpectTermination
		}
		jobs = append(jobs, job{name: w.Name, n: *n, build: w.Builder(*n), prop: w.Check, opts: opts})
	}

	if *pordiff {
		return runPORDiff(jobs, *sym)
	}

	if *serve != "" {
		return runServe(jobs, *serve, *shards, *jobtimeout)
	}

	failed := 0
	for _, j := range jobs {
		res, err := check.Explore(j.build, j.prop, j.opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%-40s ERROR: %v\n", j.name, err)
			failed++
			continue
		}
		if printResult(j.name, j.opts, res) {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "cfccheck: %d job(s) failed\n", failed)
		return 1
	}
	return 0
}

// printResult prints one job's portfolio row — the format both the
// single-process path and the fabric coordinator's merged reporting use,
// so their outputs are diffable byte for byte. It reports whether the
// row counts as a failure.
func printResult(name string, opts check.Options, res check.Result) (failed bool) {
	if res.Violation != nil {
		fmt.Printf("%-40s VIOLATION: %v\n", name, res.Violation.Err)
		fmt.Printf("%-40s   witness: %v\n", "", res.Violation.Schedule)
		return true
	}
	status := "proved (exhaustive)"
	if res.Truncated {
		status = "no violation found (truncated)"
	}
	extra := ""
	if opts.DPOR {
		engine := "DPOR"
		if res.SymmetryApplied {
			engine = "DPOR+sym"
		}
		status = "no violation (" + engine + ")"
		if !res.Truncated {
			status = "proved (" + engine + ")"
		}
		extra = fmt.Sprintf("  %6d reduced nodes", res.ReducedNodes)
	} else if opts.POR && !res.PORDisabled {
		status = "no violation (POR)"
		if !res.Truncated {
			status = "proved (POR-reduced)"
		}
		extra = fmt.Sprintf("  %6d reduced nodes", res.ReducedNodes)
	} else if res.PORDisabled {
		status = "proved (POR-auto: reference kept)"
		if res.Truncated {
			status = "no violation (POR-auto: reference kept)"
		}
	}
	fmt.Printf("%-40s %-32s %7d states %6d runs%s\n", name, status, res.States, res.Runs, extra)
	return false
}

// fleetRegistry is the fabric's shared job namespace: both the
// coordinator (for witness re-verification and the wave engine) and the
// workers resolve job names through the same fleet registry.
func fleetRegistry(name string, n int) (check.Builder, check.Property, bool) {
	w, ok := fleet.ByName(name, n)
	if !ok {
		return nil, nil, false
	}
	return w.Builder(n), w.Check, true
}

// runServe coordinates the job list over the distributed fabric and
// prints the merged rows in portfolio order — byte-identical to the
// single-process output for completed jobs — plus one FABRIC-SUMMARY
// line (which scripts strip before diffing, and bench.sh parses).
func runServe(jobs []job, addr string, shards int, jobTimeout time.Duration) int {
	fjobs := make([]fabric.Job, len(jobs))
	for i, j := range jobs {
		fjobs[i] = fabric.Job{Name: j.name, N: j.n, Opts: j.opts}
	}
	results, stats, err := fabric.Coordinate(fabric.TCP{}, addr, fjobs, fleetRegistry,
		fabric.CoordOptions{Shards: shards, JobTimeout: jobTimeout, Log: os.Stderr})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfccheck: %v\n", err)
		return 1
	}
	failed := 0
	for i, r := range results {
		switch {
		case r.Err != "":
			fmt.Fprintf(os.Stderr, "%-40s ERROR: %s\n", jobs[i].name, r.Err)
			failed++
		case r.Degraded:
			fmt.Printf("%-40s DEGRADED: job abandoned after %s timeout\n", jobs[i].name, jobTimeout)
			failed++
		default:
			if printResult(jobs[i].name, jobs[i].opts, r.Res) {
				failed++
			}
		}
	}
	wallS := float64(stats.WallMs) / 1000
	jobsPerS := 0.0
	if stats.WallMs > 0 {
		jobsPerS = float64(len(jobs)) / wallS
	}
	// events_saved counts replay work the wave probers' live sessions
	// skipped, by extending or by rewinding only the processes that
	// moved; a root-replaying prober (no persistent session) would have
	// executed events_replayed+events_saved decisions, so locality_ratio
	// is the prefix-locality win of this run.
	locality := 1.0
	if stats.EventsReplayed > 0 {
		locality = float64(stats.EventsReplayed+stats.EventsSaved) / float64(stats.EventsReplayed)
	}
	fmt.Printf("FABRIC-SUMMARY jobs=%d failed=%d workers=%d shards=%d wave_tasks=%d "+
		"events_replayed=%d events_saved=%d locality_ratio=%.2f wall_ms=%d jobs_per_s=%.2f\n",
		len(jobs), failed, stats.Workers, shards, stats.WaveTasks,
		stats.EventsReplayed, stats.EventsSaved, locality, stats.WallMs, jobsPerS)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "cfccheck: %d job(s) failed\n", failed)
		return 1
	}
	return 0
}

// runPORDiff is the soundness gate: every job explored three ways with
// otherwise identical options — unreduced reference, static ample-set
// POR, and source-DPOR (with symmetry canonicalisation when sym is set
// and the program declares a group). All runs must agree on the
// verdict; when a violation is found, every witness schedule is
// replayed on a fresh program instance and must reproduce it. One
// machine-parseable line per job (scripts/bench.sh turns them into the
// BENCH record's por and dpor sections).
func runPORDiff(jobs []job, sym bool) int {
	failed := 0
	var maxRatio, maxDPORRatio float64
	for _, j := range jobs {
		// The differential compares pure explorations; PORAuto would
		// silently substitute the reference on the static side and make
		// the diff vacuous.
		refOpts := j.opts
		refOpts.POR, refOpts.PORAuto, refOpts.DPOR, refOpts.Symmetry = false, false, false, false
		porOpts := refOpts
		porOpts.POR = true
		dporOpts := refOpts
		dporOpts.DPOR, dporOpts.Symmetry = true, sym

		type leg struct {
			name string
			opts check.Options
			res  check.Result
			ms   int64
		}
		legs := []*leg{
			{name: "reference", opts: refOpts},
			{name: "POR", opts: porOpts},
			{name: "DPOR", opts: dporOpts},
		}
		ok := true
		for _, l := range legs {
			t0 := time.Now()
			var err error
			l.res, err = check.Explore(j.build, j.prop, l.opts)
			l.ms = time.Since(t0).Milliseconds()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%-40s ERROR (%s): %v\n", j.name, l.name, err)
				failed++
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		ref, por, dpor := legs[0].res, legs[1].res, legs[2].res

		verdict := "agree"
		anyTrunc := ref.Truncated || por.Truncated || dpor.Truncated
		switch {
		case (ref.Violation == nil) != (por.Violation == nil) ||
			(ref.Violation == nil) != (dpor.Violation == nil):
			// A truncated exploration may legitimately miss a violation
			// another run reaches: the comparison is vacuous, not unsound.
			if anyTrunc {
				verdict = "incomparable-truncated"
				fmt.Fprintf(os.Stderr, "%-40s WARNING: verdicts differ under truncation (ref=%v por=%v dpor=%v); raise -depth/-states for a meaningful diff\n",
					j.name, ref.Truncated, por.Truncated, dpor.Truncated)
			} else {
				verdict = "DISAGREE"
				failed++
			}
		case ref.Violation != nil:
			verdict = "agree-violation"
			for _, l := range legs {
				ok, err := check.ReplaysToViolation(j.build, j.prop, l.opts, l.res.Violation.Schedule)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%-40s ERROR (%s witness replay): %v\n", j.name, l.name, err)
					failed++
				} else if !ok {
					verdict = "WITNESS-DEAD"
					failed++
				}
			}
		}
		ratio, dporRatio := 0.0, 0.0
		if por.States > 0 {
			ratio = float64(ref.States) / float64(por.States)
		}
		if dpor.States > 0 {
			dporRatio = float64(ref.States) / float64(dpor.States)
		}
		maxRatio = max(maxRatio, ratio)
		maxDPORRatio = max(maxDPORRatio, dporRatio)
		fmt.Printf("PORDIFF name=%s verdict=%s por_states=%d ref_states=%d ratio=%.2f por_ms=%d ref_ms=%d reduced_nodes=%d "+
			"dpor_states=%d dpor_runs=%d dpor_ratio=%.2f dpor_ms=%d dpor_reduced=%d sym=%v truncated=%v/%v/%v\n",
			j.name, verdict, por.States, ref.States, ratio, legs[1].ms, legs[0].ms, por.ReducedNodes,
			dpor.States, dpor.Runs, dporRatio, legs[2].ms, dpor.ReducedNodes, dpor.SymmetryApplied,
			por.Truncated, ref.Truncated, dpor.Truncated)
	}
	fmt.Printf("PORDIFF-SUMMARY jobs=%d failed=%d max_ratio=%.2f max_dpor_ratio=%.2f\n", len(jobs), failed, maxRatio, maxDPORRatio)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "cfccheck: reduction differential failed on %d job(s)\n", failed)
		return 1
	}
	return 0
}
