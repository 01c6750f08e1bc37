package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cfc/internal/fleet"
	"cfc/internal/lode"
	"cfc/internal/metrics"
	"cfc/internal/sim"
)

// The fleet workload: the default scenarios at n = 16, 200 runs per
// cell, one worker. The fleet seed is fixed so that every run of the
// workload executes the same 16,400 runs; --seed orders the scenarios
// and picks the per-layer sample.
const (
	fleetN        = 16
	fleetRuns     = 200
	fleetSeed     = 1
	fleetMaxSteps = 64*fleetN + 2048 // fleet.Options' default
	// queryReps is how many times each pass times the query set.
	queryReps = 2
	// sampleRuns is how many runs of each cell the per-layer sample
	// rebuilds.
	sampleRuns = 8
	// canaryRuns is how many runs of each broken scenario the canaries
	// make. The restart-unsafe mutex violates in about one brokenstorm
	// run in a hundred at n = 16, so a thousand runs leave a correct
	// program no room to miss it by chance.
	canaryRuns = 1000
)

// fleetSetup is the fleet's set-up: resolve the scenarios (in the
// seed's order) and create the dataset the fleet writes.
func fleetSetup(seed int64, dir string) ([]fleet.Scenario, *lode.Writer, error) {
	names := fleet.DefaultScenarios()
	shuffle(seed, names)
	scens := make([]fleet.Scenario, len(names))
	for i, name := range names {
		s, ok := fleet.ScenarioByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown scenario %q", name)
		}
		scens[i] = s
	}
	w, err := lode.Create(dir)
	return scens, w, err
}

func runFleet(cfg config, r *run) error {
	dir, cleanup, err := workDir(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	// Set-up alone, many times before every pass (and once more as the
	// pass's own), so its median covers the whole run; each after a
	// collection, so every sample starts from the same collected heap.
	var setups []float64
	setupReps := func() error {
		for i := 0; i < 30; i++ {
			runtime.GC()
			ds := filepath.Join(dir, fmt.Sprintf("setup%d", i))
			t0 := time.Now()
			_, w, err := fleetSetup(cfg.seed, ds)
			setups = append(setups, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(ds); err != nil {
				return err
			}
		}
		return nil
	}

	if !cfg.traced {
		var runTimes, queries []float64
		var runs int64
		for p := 0; p < cfg.passes(6.5); p++ {
			if err := setupReps(); err != nil {
				return err
			}
			out, err := fleetPass(cfg, r, filepath.Join(dir, fmt.Sprintf("ds%d", p)), nil, -1, false)
			if err != nil {
				return err
			}
			setups = append(setups, out.setup)
			runTimes = append(runTimes, out.run)
			queries = append(queries, out.queries...)
			runs = out.rep.TotalRuns()
		}
		r.set("setup_s", median(setups))
		r.set("verdict_s", median(runTimes))
		r.set("runs_per_s", float64(runs)/median(runTimes))
		r.set("query_s", median(queries))
		return fleetCanaries(r)
	}

	mem := startMem()
	plain, err := fleetPass(cfg, r, filepath.Join(dir, "plain"), nil, -1, false)
	if err != nil {
		return err
	}
	mem.report(r)
	tr := newTracer()
	ws := tr.begin(-1, kWorkload, cfg.workload)
	ds := filepath.Join(dir, "traced")
	traced, err := fleetPass(cfg, r, ds, tr, ws, true)
	if err != nil {
		return err
	}
	overhead(r, plain.run, traced.run)
	r.set("fleet.runs", float64(traced.rep.TotalRuns()))
	r.set("sim.events", float64(traced.rep.TotalEvents()))
	if err := lodeLayer(r, ds, tr, ws); err != nil {
		return err
	}
	if err := fleetSample(cfg, r, tr, ws); err != nil {
		return err
	}
	tr.end(ws)
	if err := fleetCanaries(r); err != nil {
		return err
	}
	return finishTrace(cfg, tr, r)
}

// fleetCanaries runs, after the timed passes, the broken scenarios the
// fleet must catch: broken (a racy mutex under random schedules) and
// brokenstorm (a restart-unsafe mutex under crash/recovery storms).
// Each is one operation, right when its cell reports a violation and no
// panic or access error: a scheduler or safety monitor that stops
// finding violations makes the run incorrect instead of only faster.
func fleetCanaries(r *run) error {
	scens := []string{"broken", "brokenstorm"}
	rep, err := fleet.Run(fleet.Options{Seed: fleetSeed, N: fleetN, Runs: canaryRuns, Scenarios: scens, Workers: 1})
	if err != nil {
		return err
	}
	if len(rep.Cells) != len(scens) {
		r.fail("fleet canaries: %d cells, want %d", len(rep.Cells), len(scens))
	}
	for _, c := range rep.Cells {
		ok := c.Violations > 0 && c.Panics == 0 && c.AccessErr == 0
		if !ok {
			r.fail("fleet canary %s/%s: %d violations, %d panics, %d access errors in %d runs; want a violation",
				c.Scenario, c.Workload, c.Violations, c.Panics, c.AccessErr, c.Runs)
		}
		r.op(ok)
	}
	return nil
}

type fleetPassOut struct {
	setup, run float64
	queries    []float64
	rep        *fleet.Report
}

// fleetPass sets up, runs the fleet into a fresh dataset, checks the
// report and the dataset against each other, and times the query set.
// The dataset is removed afterwards unless keep is set.
func fleetPass(cfg config, r *run, dir string, tr *tracer, parent int32, keep bool) (fleetPassOut, error) {
	var out fleetPassOut
	runtime.GC()
	t0 := time.Now()
	scens, w, err := fleetSetup(cfg.seed, dir)
	out.setup = time.Since(t0).Seconds()
	if err != nil {
		return out, err
	}
	names := make([]string, len(scens))
	cells := 0
	for i, s := range scens {
		names[i] = s.Name
		cells += len(s.Workloads(fleetN))
	}
	js := tr.begin(parent, kJob, "fleet.Run")
	t0 = time.Now()
	rep, err := fleet.Run(fleet.Options{Seed: fleetSeed, N: fleetN, Runs: fleetRuns, Scenarios: names, Workers: 1, Dataset: w})
	out.run = time.Since(t0).Seconds()
	tr.end(js)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}
	out.rep = rep

	var truncated, bad int64
	for _, c := range rep.Cells {
		truncated += c.Truncated
		bad += c.Panics + c.AccessErr + c.Violations
	}
	runs := rep.TotalRuns()
	r.attempted += runs
	r.failed += bad
	if bad > 0 || rep.Degraded() {
		r.fail("fleet: %d of %d runs failed (degraded=%v)", bad, runs, rep.Degraded())
	}
	if want := int64(cells * fleetRuns); runs != want {
		r.fail("fleet: %d runs, want %d", runs, want)
	}
	r.set("decided_share", float64(runs-truncated)/float64(runs))

	ds, err := lode.Open(dir)
	if err != nil {
		return out, err
	}
	all, err := ds.Count(lode.Query{})
	if err != nil {
		return out, err
	}
	if ds.Index.Total != runs || all != runs {
		r.fail("lode: dataset indexes %d records and holds %d, want %d", ds.Index.Total, all, runs)
	}
	size, err := dirSize(dir)
	if err != nil {
		return out, err
	}
	r.pin("fleet.runs", runs)
	r.pin("sim.events", rep.TotalEvents())
	r.pin("lode.records", all)
	r.pin("lode.bytes", size)

	digest := ""
	if err := ds.Scan(func(rec *lode.Record) bool { digest = rec.Digest; return false }); err != nil {
		return out, err
	}
	for i := 0; i < queryReps; i++ {
		t0 := time.Now()
		counts, err := querySet(dir, digest, tr, parent)
		out.queries = append(out.queries, time.Since(t0).Seconds())
		if err != nil {
			return out, err
		}
		if counts[0] != rep.Violations() {
			r.fail("lode: %d records have verdict=violation, the report counts %d", counts[0], rep.Violations())
		}
		if counts[3] < 1 {
			r.fail("lode: digest %s of the first record matches no record", digest)
		}
	}
	if !keep {
		err = os.RemoveAll(dir)
	}
	return out, err
}

// querySet opens the dataset and counts one query of each cfcfleet -grep
// form: verdict, workload prefix, scenario, one digest, violations.
func querySet(dir, digest string, tr *tracer, parent int32) ([]int64, error) {
	ds, err := lode.Open(dir)
	if err != nil {
		return nil, err
	}
	qs := []lode.Query{
		{Verdict: "violation"}, {Workload: "mutex"}, {Scenario: "crashstorm"},
		{Digest: digest}, {Violations: true},
	}
	counts := make([]int64, len(qs))
	for i, q := range qs {
		sp := tr.begin(parent, kQuery, "lode.Count")
		counts[i], err = ds.Count(q)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return counts, nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// lodeLayer measures the dataset the traced pass wrote: its size, a
// full scan, and re-appending every record into a scratch writer.
func lodeLayer(r *run, dir string, tr *tracer, parent int32) error {
	ds, err := lode.Open(dir)
	if err != nil {
		return err
	}
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	r.set("lode.records", float64(ds.Index.Total))
	r.set("lode.bytes", float64(size))

	var n int64
	ss := tr.begin(parent, kQuery, "lode.Scan")
	t0 := time.Now()
	err = ds.Scan(func(*lode.Record) bool { n++; return true })
	scan := time.Since(t0).Seconds()
	tr.end(ss)
	if err != nil {
		return err
	}
	r.set("lode.scan_records_per_s", float64(n)/scan)

	var recs []lode.Record
	if err := ds.Scan(func(rec *lode.Record) bool {
		c := *rec
		c.Schedule = append([]int(nil), rec.Schedule...)
		recs = append(recs, c)
		return true
	}); err != nil {
		return err
	}
	scratch := dir + "-append"
	as := tr.begin(parent, kQuery, "lode.Append")
	t0 = time.Now()
	w, err := lode.Create(scratch)
	if err != nil {
		return err
	}
	for i := range recs {
		if err := w.Append(&recs[i]); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	app := time.Since(t0)
	tr.end(as)
	r.set("lode.append_ns_per_record", float64(app.Nanoseconds())/float64(len(recs)))
	return os.RemoveAll(scratch)
}

// fleetSample rebuilds a fixed sample of the fleet's runs — sampleRuns
// run indices per cell, chosen by the seed — from fleet.RunSeed and
// Scenario.Sched, and runs each three times through sim.Run: into
// sim.DiscardSink (the simulator alone), into the fleet's metrics sinks,
// and into those plus lode's digest. The differences are each layer's
// cost per event. The three variants rotate so none always runs on warm
// caches.
func fleetSample(cfg config, r *run, tr *tracer, parent int32) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	idx := rng.Perm(fleetRuns)[:sampleRuns]
	var sched time.Duration
	var run [3]time.Duration
	var events, runs int64
	for _, name := range fleet.DefaultScenarios() {
		scen, _ := fleet.ScenarioByName(name)
		for _, w := range scen.Workloads(fleetN) {
			mem, procs, err := w.Build(fleetN)
			if err != nil {
				return err
			}
			thresh, err := soloThresholds(w)
			if err != nil {
				return err
			}
			obs := &metrics.RunObserver{Thresh: thresh}
			mon := &metrics.SafetyMonitor{Spec: w.Safety}
			dig := &lode.DigestSink{}
			sinks := [3]sim.Sink{sim.DiscardSink{}, sim.FanoutSink{obs, mon}, sim.FanoutSink{obs, mon, dig}}
			arena := sim.NewArena()
			for _, i := range idx {
				ss := tr.begin(parent, kSample, scen.Name+"/"+w.Name)
				for k := 0; k < 3; k++ {
					v := (k + int(runs)) % 3
					t0 := time.Now()
					s := scen.Sched(rand.New(rand.NewSource(fleet.RunSeed(fleetSeed, scen.Name, w.Name, i))), fleetN, fleetMaxSteps, w)
					t1 := time.Now()
					_, err := sim.Run(sim.Config{Mem: mem, Procs: procs, Sched: s, MaxSteps: fleetMaxSteps, Reuse: arena, Sink: sinks[v]})
					t2 := time.Now()
					if err != nil {
						return err
					}
					sched += t1.Sub(t0)
					run[v] += t2.Sub(t1)
				}
				tr.end(ss)
				events += dig.Events
				runs++
			}
		}
	}
	ev := float64(events)
	r.set("sim.ns_per_event", float64(run[0].Nanoseconds())/ev)
	r.set("metrics.sink_ns_per_event", float64((run[1]-run[0]).Nanoseconds())/ev)
	r.set("lode.digest_ns_per_event", float64((run[2]-run[1]).Nanoseconds())/ev)
	r.set("adversary.sched_ns_per_run", float64(sched.Nanoseconds())/float64(3*runs))
	return nil
}

// soloThresholds is each pid's contention-free step count, the fast-path
// cutoff the fleet gives its RunObserver: the accesses pid makes running
// alone.
func soloThresholds(w fleet.Workload) ([]int64, error) {
	mem, procs, err := w.Build(fleetN)
	if err != nil {
		return nil, err
	}
	thresh := make([]int64, fleetN)
	for pid := range thresh {
		var steps int64
		sink := &sim.StreamSink{OnEvent: func(e *sim.Event) {
			if e.PID == pid && e.Kind == sim.KindAccess {
				steps++
			}
		}}
		res, err := sim.Run(sim.Config{Mem: mem, Procs: procs, Sched: sim.Solo{PID: pid}, Sink: sink})
		if err != nil {
			return nil, err
		}
		if res.Err != nil {
			return nil, res.Err
		}
		thresh[pid] = steps
	}
	return thresh, nil
}

// workDir makes a fresh scratch directory for one run's datasets and
// returns it with its remover.
func workDir(cfg config) (string, func(), error) {
	dir := filepath.Join(cfg.state, "work", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
