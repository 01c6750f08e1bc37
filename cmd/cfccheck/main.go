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
//	cfccheck -workers 1           # one job at a time, on one goroutine
//	cfccheck -dpor=false          # the sound reference exploration instead of DPOR
//	cfccheck -sym=false           # DPOR without symmetry reduction
//	cfccheck -only splitter       # jobs whose name contains "splitter"
//	cfccheck -pordiff             # reference vs DPOR differential gate
//	cfccheck -serve :9401         # coordinate the portfolio over the fabric
//	cfccheck -join host:9401      # join a coordinator as a worker
//	cfccheck -serve :9401 -shards 2              # DPOR jobs as distributed waves (slower)
//	cfccheck -n 3 -cpuprofile check.prof          # profile the run
//
// The job list is the fleet's workload registry (internal/fleet): the
// same named programs cmd/cfcfleet storms at n = 16-64 are proved here
// exhaustively at small n, including the mixed mutex+naming workloads.
//
// -workers k (default: all cores) explores up to k jobs at once. With
// J jobs, each gets k / min(k, J) as its check.Options.Workers, the
// goroutines of DPOR's stage pass, so a lone -only job still uses every
// core under DPOR; the reference explores each job on one goroutine.
// Rows are printed in job order, and every exploration is deterministic,
// so the output is byte-identical at any -workers.
//
// -dpor (default on) selects dynamic partial-order reduction
// (source-DPOR, check/dpor.go) with pid-symmetry canonicalisation of
// the visited set (-sym=false turns the latter off; it only engages on
// programs that declare a symmetry group anyway). DPOR is not sound:
// its handling of revisited states proves two seeded broken locks that
// the reference refutes (see check.Options.DPOR), so a "proved (DPOR)"
// row is not a proof. -dpor=false runs the reference exploration, which
// branches on every live process at every state; it is the sound
// engine, and its "proved (exhaustive)" rows are proofs.
//
// -pordiff runs every job two ways — the reference and DPOR(+symmetry
// per -sym) — and fails unless the verdicts agree (replaying every
// witness when a violation is found). It prints one machine-parseable
// line per job with state counts, wall-clock and the reduction ratio,
// and a summary whose max_dpor_ratio counts only the rows where neither
// leg was truncated. It is the differential gate CI runs on the
// portfolio; on the correct algorithms both legs say "proved", so it
// cannot show DPOR proving what the reference would refute. Jobs run
// side by side as in a plain check; a job's two legs run one after
// another.
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
// need none; -serve ships every job with Workers 1, so a worker's
// goroutines do not depend on the coordinator's core count.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cfc/internal/check"
	"cfc/internal/fabric"
	"cfc/internal/fleet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type job struct {
	name  string
	n     int
	build check.Builder
	prop  check.Property
	opts  check.Options
}

// run is the command: it parses args and writes rows to stdout and
// diagnostics to stderr, returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		n        = flags.Int("n", 2, "process count")
		kind     = flags.String("kind", "", "what to check: mutex, detection, naming, mixed (empty = all)")
		crash    = flags.Bool("crash", false, "inject crashes (naming and detection)")
		depth    = flags.Int("depth", 120, "schedule depth bound")
		states   = flags.Int("states", 1<<19, "state budget")
		workers  = flags.Int("workers", runtime.GOMAXPROCS(0), "explore up to this many jobs at once; a job gets workers/(jobs at once) DPOR stage-pass goroutines (1 = one job at a time on one goroutine)")
		collapse = flags.Bool("collapse", true, "collapse pure spin-wait cycles into one state (-collapse=false explores the raw transition graph)")
		dpor     = flags.Bool("dpor", true, "dynamic partial-order reduction (source-DPOR; not sound: it proves seeded broken locks that the reference refutes); -dpor=false runs the sound reference exploration")
		sym      = flags.Bool("sym", true, "with -dpor: canonicalise the visited set under declared pid symmetry")
		only     = flags.String("only", "", "only jobs whose name contains this substring")
		pordiff  = flags.Bool("pordiff", false, "differential gate: reference vs DPOR, require agreeing verdicts, report reduction ratios")

		serve      = flags.String("serve", "", "coordinate the portfolio over the distributed fabric, listening at this TCP address")
		join       = flags.String("join", "", "join a fabric coordinator at this TCP address as a worker")
		shards     = flags.Int("shards", 0, "with -serve: >1 splits each DPOR job (not sound, see -dpor) across the workers as expansion waves, while reference jobs travel whole; a wave costs a round trip and a barrier, so this is slower than whole jobs unless one job outgrows a worker")
		jobtimeout = flags.Duration("jobtimeout", 5*time.Minute, "with -serve: abandon (DEGRADED) a job not completed this long after dispatch (0 = never)")
		cpuprofile = flags.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cfccheck: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cfccheck: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	if *join != "" {
		// A worker needs no job list: the coordinator names the work and
		// the shared fleet registry resolves it.
		if err := fabric.Work(fabric.TCP{}, *join, fleetRegistry, stderr); err != nil {
			fmt.Fprintf(stderr, "cfccheck: %v\n", err)
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
			CollapseSpins: *collapse, DPOR: *dpor, Symmetry: *dpor && *sym,
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
		return runPORDiff(jobs, *workers, *sym, stdout, stderr)
	}

	if *serve != "" {
		return runServe(jobs, *serve, *shards, *jobtimeout, stdout, stderr)
	}

	failed := runJobs(jobs, *workers, stdout, stderr, checkJob)
	if failed > 0 {
		fmt.Fprintf(stderr, "cfccheck: %d job(s) failed\n", failed)
		return 1
	}
	return 0
}

// runJobs runs body for every job, up to k jobs at once, and returns
// the sum of the failures the bodies count. Each body writes to buffers
// of its own, which are copied to stderr and stdout in job order, each
// as soon as its job and every job before it are done, so the output is
// the same at any k. A job's check.Options.Workers is k / min(k, J) for
// J jobs: the jobs running at once share the k cores, and a lone job
// gives all of them to DPOR's stage pass.
func runJobs(jobs []job, k int, stdout, stderr io.Writer, body func(i int, j job, out, errOut io.Writer) (failed int)) int {
	if len(jobs) == 0 {
		return 0
	}
	k = max(k, 1)
	par := min(k, len(jobs))
	workers := k / par
	type output struct {
		out, err bytes.Buffer
		failed   int
		done     chan struct{}
	}
	outs := make([]output, len(jobs))
	for i := range outs {
		outs[i].done = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				j.opts.Workers = workers
				o := &outs[i]
				o.failed = body(i, j, &o.out, &o.err)
				close(o.done)
			}
		}()
	}
	failed := 0
	for i := range outs {
		o := &outs[i]
		<-o.done
		stderr.Write(o.err.Bytes())
		stdout.Write(o.out.Bytes())
		failed += o.failed
	}
	wg.Wait()
	return failed
}

// checkJob explores one job and prints its row.
func checkJob(_ int, j job, out, errOut io.Writer) int {
	res, err := check.Explore(j.build, j.prop, j.opts)
	if err != nil {
		fmt.Fprintf(errOut, "%-40s ERROR: %v\n", j.name, err)
		return 1
	}
	if printResult(out, j.name, j.opts, res) {
		return 1
	}
	return 0
}

// printResult prints one job's portfolio row — the format both the
// single-process path and the fabric coordinator's merged reporting use,
// so their outputs are diffable byte for byte. It reports whether the
// row counts as a failure.
func printResult(w io.Writer, name string, opts check.Options, res check.Result) (failed bool) {
	if res.Violation != nil {
		fmt.Fprintf(w, "%-40s VIOLATION: %v\n", name, res.Violation.Err)
		fmt.Fprintf(w, "%-40s   witness: %v\n", "", res.Violation.Schedule)
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
	}
	fmt.Fprintf(w, "%-40s %-32s %7d states %6d runs%s\n", name, status, res.States, res.Runs, extra)
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
func runServe(jobs []job, addr string, shards int, jobTimeout time.Duration, stdout, stderr io.Writer) int {
	fjobs := make([]fabric.Job, len(jobs))
	for i, j := range jobs {
		opts := j.opts
		opts.Workers = 1
		fjobs[i] = fabric.Job{Name: j.name, N: j.n, Opts: opts}
	}
	results, stats, err := fabric.Coordinate(fabric.TCP{}, addr, fjobs, fleetRegistry,
		fabric.CoordOptions{Shards: shards, JobTimeout: jobTimeout, Log: stderr})
	if err != nil {
		fmt.Fprintf(stderr, "cfccheck: %v\n", err)
		return 1
	}
	failed := 0
	for i, r := range results {
		switch {
		case r.Err != "":
			fmt.Fprintf(stderr, "%-40s ERROR: %s\n", jobs[i].name, r.Err)
			failed++
		case r.Degraded:
			fmt.Fprintf(stdout, "%-40s DEGRADED: job abandoned after %s timeout\n", jobs[i].name, jobTimeout)
			failed++
		default:
			if printResult(stdout, jobs[i].name, jobs[i].opts, r.Res) {
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
	fmt.Fprintf(stdout, "FABRIC-SUMMARY jobs=%d failed=%d workers=%d shards=%d wave_tasks=%d "+
		"events_replayed=%d events_saved=%d locality_ratio=%.2f wall_ms=%d jobs_per_s=%.2f\n",
		len(jobs), failed, stats.Workers, shards, stats.WaveTasks,
		stats.EventsReplayed, stats.EventsSaved, locality, stats.WallMs, jobsPerS)
	if failed > 0 {
		fmt.Fprintf(stderr, "cfccheck: %d job(s) failed\n", failed)
		return 1
	}
	return 0
}

// runPORDiff is the differential gate: every job explored two ways with
// otherwise identical options — the reference, and source-DPOR (with
// symmetry canonicalisation when sym is set and the program declares a
// group). Both must agree on the verdict; when a violation is found,
// each witness schedule is replayed on a fresh program instance and
// must reproduce it. One machine-parseable line per job
// (scripts/bench.sh turns them into the BENCH record's dpor section).
// Up to k jobs run at once, as in a plain check.
func runPORDiff(jobs []job, k int, sym bool, stdout, stderr io.Writer) int {
	// Per job: reference/DPOR states where neither leg was truncated (a
	// count cut by the state budget is no reduction), else 0.
	ratios := make([]float64, len(jobs))
	failed := runJobs(jobs, k, stdout, stderr, func(i int, j job, out, errOut io.Writer) (failed int) {
		refOpts := j.opts
		refOpts.DPOR, refOpts.Symmetry = false, false
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
			{name: "DPOR", opts: dporOpts},
		}
		for _, l := range legs {
			t0 := time.Now()
			var err error
			l.res, err = check.Explore(j.build, j.prop, l.opts)
			l.ms = time.Since(t0).Milliseconds()
			if err != nil {
				fmt.Fprintf(errOut, "%-40s ERROR (%s): %v\n", j.name, l.name, err)
				return 1
			}
		}
		ref, dpor := legs[0].res, legs[1].res

		verdict := "agree"
		anyTrunc := ref.Truncated || dpor.Truncated
		switch {
		case (ref.Violation == nil) != (dpor.Violation == nil):
			// A truncated exploration may legitimately miss a violation
			// another run reaches: the comparison is vacuous, not unsound.
			if anyTrunc {
				verdict = "incomparable-truncated"
				fmt.Fprintf(errOut, "%-40s WARNING: verdicts differ under truncation (ref=%v dpor=%v); raise -depth/-states for a meaningful diff\n",
					j.name, ref.Truncated, dpor.Truncated)
			} else {
				verdict = "DISAGREE"
				failed++
			}
		case ref.Violation != nil:
			verdict = "agree-violation"
			for _, l := range legs {
				ok, err := check.ReplaysToViolation(j.build, j.prop, l.opts, l.res.Violation.Schedule)
				if err != nil {
					fmt.Fprintf(errOut, "%-40s ERROR (%s witness replay): %v\n", j.name, l.name, err)
					failed++
				} else if !ok {
					verdict = "WITNESS-DEAD"
					failed++
				}
			}
		}
		dporRatio := 0.0
		if dpor.States > 0 {
			dporRatio = float64(ref.States) / float64(dpor.States)
		}
		if !anyTrunc {
			ratios[i] = dporRatio
		}
		fmt.Fprintf(out, "PORDIFF name=%s verdict=%s ref_states=%d ref_ms=%d "+
			"dpor_states=%d dpor_runs=%d dpor_ratio=%.2f dpor_ms=%d dpor_reduced=%d sym=%v truncated=%v/%v\n",
			j.name, verdict, ref.States, legs[0].ms,
			dpor.States, dpor.Runs, dporRatio, legs[1].ms, dpor.ReducedNodes, dpor.SymmetryApplied,
			ref.Truncated, dpor.Truncated)
		return failed
	})
	var maxDPORRatio float64
	for _, r := range ratios {
		maxDPORRatio = max(maxDPORRatio, r)
	}
	fmt.Fprintf(stdout, "PORDIFF-SUMMARY jobs=%d failed=%d max_dpor_ratio=%.2f\n", len(jobs), failed, maxDPORRatio)
	if failed > 0 {
		fmt.Fprintf(stderr, "cfccheck: reduction differential failed on %d job(s)\n", failed)
		return 1
	}
	return 0
}
