// Command perfbench is cfc's end-to-end benchmark. It runs one named
// workload, measures it from outside the program, checks the program's
// outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload check-dpor --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload fabric --seed 1 --seconds 20 --trace 1
//
// run.sh builds this package (its own module, which imports the
// repository's internal packages through a replace directive) into
// .bench_build/ and runs it from the root of the checkout. --trace 0
// prints the end-to-end metrics; --trace 1 reruns the workload with
// wrappers around the public functions of check, sim, metrics,
// fleet/adversary, lode and fabric and prints the per-layer metrics
// instead. Nothing under internal/ or cmd/ knows it is being measured.
//
// # Workloads
//
// All load comes from one process at GOMAXPROCS = nproc. The three
// single-process workloads run one worker; only fabric runs two. Every
// job and run finishes untruncated (or, in the fleet, ends by its own
// rules), because a truncated job's work depends on visit order. The
// seed permutes the order of the jobs (of the scenarios, for fleet) and
// picks the fleet's per-layer sample; the work done is the same for
// every seed, so the exact counters below hold across seeds.
//
//   - check-dpor: the default engine, DPOR with symmetry, through
//     check.Explore. Jobs: the portfolio at n = 2 and 3, the n = 3
//     naming/detection crash variants, and CI's n = 4 sets (-only tas
//     -crash, -only splitter): 50 jobs. DPOR race analysis, the opset
//     oracle and symmetry canonicalisation do their work here and
//     nowhere else.
//   - check-ref: the reference mode (no DPOR, no POR: the serial DFS with
//     sibling-peek). Jobs: the n = 2-4 entries that finish inside the
//     2^19-state budget, plus the n = 3 crash variants: 49 jobs. Replay,
//     spin-collapse hashing and a large visited set, with no race
//     analysis. It is the no-change side of every DPOR change.
//   - fleet: fleet.Run over the default scenarios at n = 16, 200 runs per
//     cell (16,400 runs), into a lode dataset, then a fixed query set
//     over it. The only workload where the simulator run loop, the storm
//     schedulers, the sinks and lode dominate.
//   - fabric: fabric.Coordinate over loopback TCP to two in-process
//     fabric.Work workers, Shards: 2. Jobs: check-dpor's 23 n = 3 jobs,
//     run as distributed waves, plus reference-mode
//     tournament(l=1,peterson/kessels) at n = 3, run as frontier probes.
//     The same DPOR stage/commit code as check-dpor, split across a
//     wire: a change that helps in-process DPOR but hurts the split shows
//     here.
//
// A run measures passes over the whole job list; how many follows from
// --seconds and a fixed pass length per workload, never from how fast
// the host happens to be. A collection runs before each job and pass,
// outside the timed region, so no job pays for its predecessor's
// garbage.
//
// # End-to-end metrics (--trace 0)
//
// Every workload prints all seven:
//
//   - setup_s: everything before the first exploration or run, as the
//     median of many set-ups timed across the run, each right after a
//     collection (check workloads: one before every job; fleet and
//     fabric: a series before every pass). A set-up takes only a tenth
//     of a millisecond or so, and the samples a single burst gives move
//     together. Check workloads: the job list from fleet.Portfolio.
//     Fleet: scenario resolution and lode.Create. Fabric: from the
//     Coordinate call until both workers' hello frames have been read.
//   - verdict_s: from the end of set-up to the last result. Check
//     workloads: the sum over jobs of each job's median time across the
//     passes. Fabric: the median pass. Fleet: the median fleet.Run wall
//     time (the storm's verdict; it carries the same information as
//     runs_per_s, since the run count is fixed).
//   - runs_per_s: fleet: Report.TotalRuns() over the median fleet.Run
//     wall time. Check workloads and fabric: the maximal runs the proofs
//     explored (check.Result.Runs, a fixed count) over verdict_s.
//   - query_s: fleet: lode.Open, then lode.Count for each cfcfleet -grep
//     form (verdict, workload prefix, scenario, one digest, violations)
//     over the dataset just written, median over the timed query sets.
//     Check workloads and fabric: the latency of a typical one-entry
//     query (cfccheck -only NAME), the geometric mean of the jobs'
//     median times; fabric takes each job's time from
//     fabric.JobResult.Ms, whole milliseconds read as the middle of the
//     millisecond (its smallest jobs take a few milliseconds).
//   - peak_rss_mb: the peak RSS of the process, which ran only this
//     workload.
//   - decided_share: jobs proved untruncated over jobs; fleet: runs that
//     ended before the step budget over runs.
//   - ok_share: operations with the right answer over operations. A job
//     fails on an error, a DEGRADED result, a violation on the correct
//     portfolio, or (fabric) a result that differs from single-process
//     check.Explore. A fleet run fails on a panic, an access error or a
//     violation.
//
// Output checks, any of which sets correct to false: the fleet dataset
// holds exactly Report.TotalRuns() records and Count(verdict=violation)
// equals Report.Violations(); every fabric job equals check.Explore's
// result, computed after the timed passes; the fabric run had exactly
// two workers; the traced wave pass reproduces each check-dpor job's
// States, Runs, Truncated and verdict.
//
// Every job above is a correct algorithm, so a change that stops finding
// violations would pass those checks and look faster. Canaries, run
// after the timed passes, close that gap; each is an operation that
// counts in ok_share. The check workloads explore broken/racy-mutex at
// n = 2 and 3, with and without crash branches, under their own
// options; fabric runs it at n = 3 as distributed waves and as frontier
// probes and compares both with check.Explore; fleet runs 1,000 runs of
// each of the broken and brokenstorm scenarios. Each must report a
// violation. broken/restart-unsafe-mutex is a fleet canary only: its
// bug needs a restart after a crash, and the checker explores crashes
// without restarts, so it proves that lock.
//
// # Per-layer metrics (--trace 1), and what each should move
//
// The layer is the package. Arrows name the end-to-end metric a layer
// metric should move.
//
//   - check.states, check.runs → verdict_s on check-dpor and check-ref.
//     On check-dpor the traced mode also drives every job through the
//     public wave seam on one goroutine (NewWaveMaster, Wave,
//     NewWaveProber, ProbeWave, Commit): check.waves and check.wave_tasks
//     (the mean wave width caps any gain from parallel or fabric waves →
//     fabric/verdict_s), check.stage_s → check-dpor/verdict_s,
//     check.commit_s (the serial part) → fabric/verdict_s, and
//     check.dispatch_s, traced Explore time less stage and commit →
//     check-dpor/verdict_s. The serial DFS of check-ref has no public
//     seam to split.
//   - sim.events_replayed, sim.events_saved (WaveProber.Stats) and
//     sim.replay_s (a standalone sim session seeking the wave pass's task
//     schedules in task order) → check-dpor/verdict_s. sim.events and
//     sim.ns_per_event (a fixed sample of fleet runs rebuilt with
//     fleet.RunSeed and Scenario.Sched, run into sim.DiscardSink) →
//     fleet/runs_per_s.
//   - metrics.property_evals, metrics.property_s (the Property wrapped,
//     on the fabric workers too, through the benchmark's Registry) →
//     verdict_s on check-dpor and check-ref. metrics.sink_ns_per_event
//     (the sample through FanoutSink{RunObserver, SafetyMonitor}, less
//     the discard run) → fleet/runs_per_s.
//   - adversary.sched_ns_per_run (the sample's Scenario.Sched calls) →
//     fleet/runs_per_s.
//   - lode.digest_ns_per_event (the sample with lode.DigestSink added),
//     lode.append_ns_per_record (the scanned records re-appended into a
//     scratch Writer) → fleet/runs_per_s; lode.records, lode.bytes,
//     lode.scan_records_per_s → fleet/query_s.
//   - fabric.frames, fabric.bytes_to_workers, fabric.bytes_from_workers,
//     fabric.worker_wait_s (workers blocked in Read), fabric.codec_s
//     (the captured frames through ReadFrame and WriteFrame),
//     fabric.wave_job_s, fabric.frontier_job_s, fabric.wave_tasks,
//     fabric.probes, fabric.events_replayed, fabric.events_saved, all
//     measured by the benchmark's Transport wrapper and from Stats →
//     fabric/verdict_s.
//   - runtime.alloc_mb, runtime.gc_cycles (MemStats deltas over one
//     untraced pass; forced collections not counted) → peak_rss_mb and
//     the time metrics on every workload.
//
// Bypass predictions: a DPOR-only change leaves check-ref and fleet
// unchanged; a wire or transport change leaves the three single-process
// workloads unchanged; a lode change moves only fleet. Each workload
// names the per-layer metrics it measures (workloads in main.go); a
// traced run that misses one fails, and a layer the workload does not
// pass through reads 0.
//
// The traced mode records a span around each call the benchmark makes
// into a layer — workload, job, wave, stage and commit, replay, each
// fleet sample run, each query, each fabric frame — keeps them in
// memory and writes them to .bench_build/spans/<workload>.tsv when the
// run ends. It reports each kind's self time (span.<kind>.self_s: span
// time not covered by child spans), the span count, and the tracing
// overhead (trace.overhead_s and trace.overhead_share: the traced pass
// against an untraced pass of the same run, in verdict_s or, for fleet,
// fleet.Run time).
//
// At the start and end of every run a child process times two fixed
// kernels that use no repository code: an integer kernel (host.calib_s)
// and a chain of dependent loads through a 16 MiB buffer
// (host.calib_mem_s), which also shows contention for the shared cache
// and memory. Both print on the diag line of every run and as per-layer
// metrics; a slower host shows there, not only in the workload's
// figures.
//
// # Exact counters
//
// These must repeat exactly in every pass of a run and in every run of
// the workload and mode (recorded in .bench_build/exact/, keyed by a
// hash of the benchmark binary), or the run is not correct:
// check.states, check.runs, and on traced check-dpor check.waves,
// check.wave_tasks, sim.events_replayed and sim.events_saved (one wave
// pass per run, so these repeat across runs only); on fleet fleet.runs,
// sim.events, lode.records and lode.bytes. The fabric's
// replay counters and frame counts depend on how chunks land on the two
// workers; they are reported, not gated.
package main
