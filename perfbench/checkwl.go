package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"cfc/internal/check"
	"cfc/internal/fleet"
	"cfc/internal/sim"
)

// checkJob is one portfolio entry as cfccheck runs it.
type checkJob struct {
	label string
	w     fleet.Workload
	n     int
	opts  check.Options
}

func (j checkJob) build() check.Builder { return j.w.Builder(j.n) }

// checkOptions mirrors cfccheck's defaults (-depth 120 -states 2^19,
// spin collapse on) at -workers 1: DPOR with symmetry, or with dpor
// false the reference mode (-dpor=false -por=false).
func checkOptions(w fleet.Workload, crash, dpor bool) check.Options {
	o := check.Options{MaxDepth: 120, MaxStates: 1 << 19, CollapseSpins: true, Workers: 1}
	if dpor {
		o.POR, o.PORAuto, o.DPOR, o.Symmetry = true, true, true, true
	}
	if w.Kind == fleet.KindTask {
		o.ExploreCrashes = crash
		o.ExpectTermination = w.ExpectTermination
	}
	return o
}

// portfolioJobs is the job list of `cfccheck -n N [-crash] [-only S]`,
// less the entries named in skip. With tasksOnly it keeps only the
// one-shot task entries, which are the ones -crash changes.
func portfolioJobs(n int, crash, tasksOnly, dpor bool, only string, skip ...string) []checkJob {
	var out []checkJob
	for _, w := range fleet.Portfolio(n) {
		if (tasksOnly && w.Kind != fleet.KindTask) || !strings.Contains(w.Name, only) || slices.Contains(skip, w.Name) {
			continue
		}
		label := fmt.Sprintf("n=%d %s", n, w.Name)
		if crash && w.Kind == fleet.KindTask {
			label += " crash"
		}
		out = append(out, checkJob{label: label, w: w, n: n, opts: checkOptions(w, crash, dpor)})
	}
	return out
}

// dporJobs is the check-dpor job list: the portfolio at n = 2 and 3, the
// n = 3 naming/detection crash variants, and CI's n = 4 sets
// (-only tas -crash, -only splitter). 50 jobs, all proved untruncated.
func dporJobs() []checkJob {
	var js []checkJob
	js = append(js, portfolioJobs(2, false, false, true, "")...)
	js = append(js, portfolioJobs(3, false, false, true, "")...)
	js = append(js, portfolioJobs(3, true, true, true, "")...)
	js = append(js, portfolioJobs(4, true, false, true, "tas")...)
	js = append(js, portfolioJobs(4, false, false, true, "splitter")...)
	return js
}

// refJobs is the check-ref job list: every n = 2-4 entry that the
// reference mode proves inside the 2^19-state budget, plus the n = 3
// crash variants. 49 jobs. The skipped entries stop at the budget, and a
// truncated job's work depends on visit order.
func refJobs() []checkJob {
	var js []checkJob
	js = append(js, portfolioJobs(2, false, false, false, "")...)
	js = append(js, portfolioJobs(3, false, false, false, "",
		"mutex/lamport-fast", "mutex/lamport-packed", "mutex/tournament(l=2)")...)
	js = append(js, portfolioJobs(3, true, true, false, "")...)
	js = append(js, portfolioJobs(4, false, false, false, "",
		"mutex/lamport-fast", "mutex/lamport-packed", "mutex/tournament(l=1,peterson)",
		"mutex/tournament(l=1,kessels)", "mutex/tournament(l=2)")...)
	return js
}

func runCheckDPOR(cfg config, r *run) error { return runCheck(cfg, r, dporJobs, true) }
func runCheckRef(cfg config, r *run) error  { return runCheck(cfg, r, refJobs, false) }

// runCheck runs a check workload: set-up is building the job list from
// fleet.Portfolio, then every job is proved by check.Explore on one
// goroutine. After the timed passes the canaries run.
func runCheck(cfg config, r *run, jobList func() []checkJob, dpor bool) error {
	jobs := jobList()
	shuffle(cfg.seed, jobs)
	if !cfg.traced {
		// Set-up is timed once more before every job, after the collection
		// that precedes it, so its median covers the whole run and every
		// sample starts from the same collected heap.
		var setups []float64
		setup := func() {
			t0 := time.Now()
			jobList()
			setups = append(setups, time.Since(t0).Seconds())
		}
		times := make(jobTimes, cfg.passes(6.5))
		var runs int
		for p := range times {
			var res []check.Result
			times[p], res = explorePass(r, jobs, nil, -1, nil, setup)
			runs = pinResults(r, res)
		}
		r.set("setup_s", median(setups))
		r.set("verdict_s", times.verdict())
		r.set("runs_per_s", float64(runs)/times.verdict())
		r.set("query_s", times.query())
		return checkCanaries(r, dpor)
	}

	mem := startMem()
	plain, _ := explorePass(r, jobs, nil, -1, nil, nil)
	mem.report(r)
	tr := newTracer()
	ws := tr.begin(-1, kWorkload, cfg.workload)
	var pc propCounter
	traced, res := explorePass(r, jobs, tr, ws, &pc, nil)
	pinResults(r, res)
	tracedTotal := sum(traced)
	overhead(r, sum(plain), tracedTotal)
	r.set("metrics.property_evals", float64(pc.evals.Load()))
	r.set("metrics.property_s", float64(pc.ns.Load())/1e9)
	if dpor {
		st, err := wavePassAll(r, jobs, res, tr, ws)
		if err != nil {
			return err
		}
		r.pin("check.waves", st.waves)
		r.pin("check.wave_tasks", st.tasks)
		r.pin("sim.events_replayed", st.probe.Replayed)
		r.pin("sim.events_saved", st.probe.Saved)
		r.set("check.waves", float64(st.waves))
		r.set("check.wave_tasks", float64(st.tasks))
		r.set("check.stage_s", st.stage.Seconds())
		r.set("check.commit_s", st.commit.Seconds())
		r.set("check.dispatch_s", tracedTotal-st.stage.Seconds()-st.commit.Seconds())
		r.set("sim.events_replayed", float64(st.probe.Replayed))
		r.set("sim.events_saved", float64(st.probe.Saved))
		r.set("sim.replay_s", st.replay.Seconds())
	}
	tr.end(ws)
	if err := checkCanaries(r, dpor); err != nil {
		return err
	}
	return finishTrace(cfg, tr, r)
}

// checkCanaries explores, after the timed passes, the deliberately racy
// mutex at n = 2 and 3, with and without crash branches, under the
// workload's options. The checker must report its violation: a
// reduction that prunes too much, or a property that never fires, makes
// the run incorrect instead of only faster. (The restart-unsafe mutex
// is no canary here: its bug needs a restart after a crash, and the
// checker explores crashes without restarts, so it proves that lock.
// The fleet's brokenstorm scenario finds it.)
func checkCanaries(r *run, dpor bool) error {
	jobs, err := canaryJobs(dpor)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		res, err := check.Explore(j.build(), j.w.Check, j.opts)
		ok := err == nil && res.Violation != nil
		if !ok {
			r.fail("%s: no violation found in a deliberately broken algorithm (error: %v)", j.label, err)
		}
		r.op(ok)
	}
	return nil
}

// canaryJobs is broken/racy-mutex at n = 2 and 3, with and without crash
// branches, under the check-dpor options or the reference options.
func canaryJobs(dpor bool) ([]checkJob, error) {
	var js []checkJob
	for _, n := range []int{2, 3} {
		w, ok := fleet.ByName("broken/racy-mutex", n)
		if !ok {
			return nil, fmt.Errorf("canary broken/racy-mutex is not in the fleet registry")
		}
		for _, crash := range []bool{false, true} {
			o := checkOptions(w, false, dpor)
			o.ExploreCrashes = crash
			label := fmt.Sprintf("n=%d %s", n, w.Name)
			if crash {
				label += " crash"
			}
			js = append(js, checkJob{label: label, w: w, n: n, opts: o})
		}
	}
	return js, nil
}

// explorePass proves every job once, each after a collection so that no
// job pays for its predecessor's garbage, and returns the per-job times.
// A non-nil sample runs after each collection, before the job's timer
// starts. Traced, each job is a span and the property is wrapped to
// count and time its evaluations.
func explorePass(r *run, jobs []checkJob, tr *tracer, parent int32, pc *propCounter, sample func()) ([]float64, []check.Result) {
	times := make([]float64, len(jobs))
	res := make([]check.Result, len(jobs))
	for i, j := range jobs {
		prop := check.Property(j.w.Check)
		if pc != nil {
			prop = pc.wrap(prop)
		}
		runtime.GC()
		if sample != nil {
			sample()
		}
		js := tr.begin(parent, kJob, j.label)
		t0 := time.Now()
		out, err := check.Explore(j.build(), prop, j.opts)
		times[i] = time.Since(t0).Seconds()
		tr.end(js)
		res[i] = out
		r.op(jobOK(r, j.label, out, err))
	}
	return times, res
}

// jobOK judges one proof: on the correct portfolio every job must end
// without an error and without a violation. A truncated job counts as
// undecided, which decided_share reports and the run fails on.
func jobOK(r *run, label string, res check.Result, err error) bool {
	switch {
	case err != nil:
		r.fail("%s: %v", label, err)
		return false
	case res.Violation != nil:
		r.fail("%s: violation on a correct algorithm: %v", label, res.Violation)
		return false
	case res.Truncated:
		r.fail("%s: truncated at %d states", label, res.States)
	}
	return true
}

// pinResults pins a pass's summed counters, sets decided_share and
// returns the pass's run count.
func pinResults(r *run, res []check.Result) int {
	states, runs, decided := 0, 0, 0
	for _, x := range res {
		states += x.States
		runs += x.Runs
		if !x.Truncated {
			decided++
		}
	}
	r.pin("check.states", int64(states))
	r.pin("check.runs", int64(runs))
	r.set("check.states", float64(states))
	r.set("check.runs", float64(runs))
	r.set("decided_share", float64(decided)/float64(len(res)))
	return runs
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// propCounter counts and times property evaluations; fabric workers
// evaluate from several goroutines, hence the atomics.
type propCounter struct{ evals, ns atomic.Int64 }

func (c *propCounter) wrap(p check.Property) check.Property {
	return func(t *sim.Trace) error {
		t0 := time.Now()
		err := p(t)
		c.ns.Add(int64(time.Since(t0)))
		c.evals.Add(1)
		return err
	}
}

// waveStats sums a serial wave pass over the DPOR jobs.
type waveStats struct {
	waves, tasks          int64
	stage, commit, replay time.Duration
	probe                 check.ProbeStats
}

// wavePassAll drives every DPOR job through the engine's public wave
// seam — NewWaveMaster, Wave, NewWaveProber, ProbeWave, Commit — on one
// goroutine, so the time Explore spends can be split into the stage
// pass, the serial commit and what remains (the dispatch around them).
// Each job's result must match Explore's. Each job's task schedules are
// then replayed in task order through a standalone sim session, which
// times the replay alone.
func wavePassAll(r *run, jobs []checkJob, want []check.Result, tr *tracer, parent int32) (waveStats, error) {
	var st waveStats
	for i, j := range jobs {
		runtime.GC()
		js := tr.begin(parent, kJob, j.label)
		res, scheds, err := wavePass(j, &st, tr, js)
		if err != nil {
			tr.end(js)
			return st, fmt.Errorf("%s: wave pass: %w", j.label, err)
		}
		ok := res.States == want[i].States && res.Runs == want[i].Runs &&
			res.Truncated == want[i].Truncated && (res.Violation == nil) == (want[i].Violation == nil)
		if !ok {
			r.fail("%s: wave pass gave %d states, %d runs, truncated=%v; Explore gave %d, %d, %v",
				j.label, res.States, res.Runs, res.Truncated, want[i].States, want[i].Runs, want[i].Truncated)
		}
		r.op(ok)
		d, err := replaySchedules(j, scheds, tr, js)
		tr.end(js)
		if err != nil {
			return st, fmt.Errorf("%s: replay: %w", j.label, err)
		}
		st.replay += d
	}
	return st, nil
}

func wavePass(j checkJob, st *waveStats, tr *tracer, parent int32) (check.Result, *schedules, error) {
	m, err := check.NewWaveMaster(j.build(), j.w.Check, j.opts)
	if err != nil {
		return check.Result{}, nil, err
	}
	p, err := check.NewWaveProber(j.build(), j.w.Check, j.opts)
	if err != nil {
		return check.Result{}, nil, err
	}
	defer p.Close()
	before := p.Stats()
	scheds := &schedules{}
	for !m.Done() {
		ws := tr.begin(parent, kWave, "")
		wave := m.Wave()
		reps := make([]check.WaveReport, len(wave))
		for i, nd := range wave {
			t0 := time.Now()
			reps[i], err = p.ProbeWave(nd)
			t1 := time.Now()
			if err != nil {
				return check.Result{}, nil, err
			}
			st.stage += t1.Sub(t0)
			tr.record(ws, kStage, "", t0, t1)
			scheds.add(nd.Schedule)
		}
		t0 := time.Now()
		err := m.Commit(reps)
		t1 := time.Now()
		if err != nil {
			return check.Result{}, nil, err
		}
		st.commit += t1.Sub(t0)
		tr.record(ws, kCommit, "", t0, t1)
		tr.endAt(ws, t1)
		st.waves++
		st.tasks += int64(len(wave))
	}
	after := p.Stats()
	st.probe.Probes += after.Probes - before.Probes
	st.probe.Replayed += after.Replayed - before.Replayed
	st.probe.Saved += after.Saved - before.Saved
	return m.Result(), scheds, nil
}

// schedules stores a job's wave-task schedules compactly: decision
// entries are small pids (or -pid-1 crashes), so one byte each.
type schedules struct {
	entries []int8
	ends    []int
}

func (s *schedules) add(sched []int) {
	for _, e := range sched {
		s.entries = append(s.entries, int8(e))
	}
	s.ends = append(s.ends, len(s.entries))
}

// replaySchedules positions one standalone session at every task
// schedule in task order, as a wave prober does before its stage work.
func replaySchedules(j checkJob, s *schedules, tr *tracer, parent int32) (time.Duration, error) {
	mem, procs, err := j.build()()
	if err != nil {
		return 0, err
	}
	buf := make([]int, 0, 256)
	rs := tr.begin(parent, kReplay, "")
	defer tr.end(rs)
	t0 := time.Now()
	sess, err := sim.StartSession(sim.Config{Mem: mem, Procs: procs, Reuse: sim.NewArena()})
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	lo := 0
	for _, hi := range s.ends {
		buf = buf[:0]
		for _, e := range s.entries[lo:hi] {
			buf = append(buf, int(e))
		}
		lo = hi
		if err := sess.Seek(buf); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
