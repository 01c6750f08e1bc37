package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cfc/internal/check"
	"cfc/internal/fabric"
	"cfc/internal/fleet"
)

// fabricJobs is check-dpor's 23 n = 3 jobs, which the coordinator runs
// as distributed waves, plus reference-mode tournament(l=1,peterson)
// and tournament(l=1,kessels) at n = 3, which it runs as frontier probes.
func fabricJobs() []checkJob {
	var js []checkJob
	js = append(js, portfolioJobs(3, false, false, true, "")...)
	js = append(js, portfolioJobs(3, true, true, true, "")...)
	js = append(js, portfolioJobs(3, false, false, false, "mutex/tournament(l=1,")...)
	return js
}

// registry resolves job names through the fleet registry, as cfccheck
// does on both sides of the wire. With a counter, every property the
// coordinator or a worker builds is wrapped to count its evaluations.
func registry(pc *propCounter) fabric.Registry {
	return func(name string, n int) (check.Builder, check.Property, bool) {
		w, ok := fleet.ByName(name, n)
		if !ok {
			return nil, nil, false
		}
		prop := check.Property(w.Check)
		if pc != nil {
			prop = pc.wrap(prop)
		}
		return w.Builder(n), prop, true
	}
}

func runFabric(cfg config, r *run) error {
	jobs := fabricJobs()
	shuffle(cfg.seed, jobs)
	// Set-up alone: Coordinate calls over a job of six states, so the
	// time is the listen, the two dials and the two hellos. Many run
	// before every pass, each after a collection, so the median covers
	// the whole run.
	tiny := portfolioJobs(2, false, false, true, "naming/tas-scan")
	var setups []float64
	setupReps := func() error {
		for i := 0; i < 24; i++ {
			out, err := fabricPass(tiny, registry(nil), nil, nil, -1)
			if err != nil {
				return err
			}
			setups = append(setups, out.setup)
		}
		return nil
	}

	if !cfg.traced {
		outs := make([]fabricPassOut, cfg.passes(10))
		verdicts := make([]float64, len(outs))
		times := make(jobTimes, len(outs))
		for p := range outs {
			if err := setupReps(); err != nil {
				return err
			}
			out, err := fabricPass(jobs, registry(nil), nil, nil, -1)
			if err != nil {
				return err
			}
			outs[p], verdicts[p], times[p] = out, out.verdict, out.jobTimes()
			setups = append(setups, out.setup)
		}
		runs, err := verifyFabric(r, jobs, outs)
		if err != nil {
			return err
		}
		r.set("setup_s", median(setups))
		r.set("verdict_s", median(verdicts))
		r.set("runs_per_s", float64(runs)/median(verdicts))
		r.set("query_s", times.query())
		return fabricCanaries(r)
	}

	mem := startMem()
	plain, err := fabricPass(jobs, registry(nil), nil, nil, -1)
	if err != nil {
		return err
	}
	mem.report(r)
	tr := newTracer()
	ws := tr.begin(-1, kWorkload, cfg.workload)
	var pc propCounter
	rec := &frameRecorder{}
	traced, err := fabricPass(jobs, registry(&pc), rec, tr, ws)
	tr.end(ws)
	if err != nil {
		return err
	}
	if _, err := verifyFabric(r, jobs, []fabricPassOut{plain, traced}); err != nil {
		return err
	}
	overhead(r, plain.verdict, traced.verdict)
	r.set("metrics.property_evals", float64(pc.evals.Load()))
	r.set("metrics.property_s", float64(pc.ns.Load())/1e9)
	var wave, frontier float64
	for i, t := range traced.jobTimes() {
		if jobs[i].opts.DPOR {
			wave += t
		} else {
			frontier += t
		}
	}
	st := traced.stats
	r.set("fabric.wave_job_s", wave)
	r.set("fabric.frontier_job_s", frontier)
	r.set("fabric.wave_tasks", float64(st.WaveTasks))
	r.set("fabric.probes", float64(st.Probes))
	r.set("fabric.events_replayed", float64(st.EventsReplayed))
	r.set("fabric.events_saved", float64(st.EventsSaved))
	r.set("fabric.frames", float64(len(rec.frames)))
	r.set("fabric.bytes_to_workers", float64(rec.toWorkers))
	r.set("fabric.bytes_from_workers", float64(rec.fromWorkers))
	r.set("fabric.worker_wait_s", float64(rec.wait.Load())/1e9)
	codec, err := rec.codec()
	if err != nil {
		return err
	}
	r.set("fabric.codec_s", codec)
	if err := fabricCanaries(r); err != nil {
		return err
	}
	return finishTrace(cfg, tr, r)
}

// verifyFabric judges every job of every pass against the single-process
// check.Explore result of the same job, computed after the timed passes:
// a fabric result that differs, errs, degrades or finds a violation is a
// failed operation. It returns the run count of one pass.
func verifyFabric(r *run, jobs []checkJob, outs []fabricPassOut) (int, error) {
	runs := 0
	decided := 0
	for i, j := range jobs {
		want, err := check.Explore(j.build(), j.w.Check, j.opts)
		if err != nil {
			return 0, fmt.Errorf("%s: single-process reference: %w", j.label, err)
		}
		runs += want.Runs
		for _, out := range outs {
			got := out.results[i]
			ok := fabricMatches(r, j.label, got, want) && jobOK(r, j.label, got.Res, nil)
			r.op(ok)
			if !got.Res.Truncated && got.Err == "" && !got.Degraded {
				decided++
			}
		}
	}
	for _, out := range outs {
		states, pruns := 0, 0
		for _, res := range out.results {
			states += res.Res.States
			pruns += res.Res.Runs
		}
		r.pin("check.states", int64(states))
		r.pin("check.runs", int64(pruns))
		r.set("check.states", float64(states))
		r.set("check.runs", float64(pruns))
	}
	r.set("decided_share", float64(decided)/float64(len(jobs)*len(outs)))
	return runs, nil
}

// fabricMatches reports whether a fabric job completed with exactly the
// single-process result.
func fabricMatches(r *run, label string, got fabric.JobResult, want check.Result) bool {
	switch {
	case got.Err != "":
		r.fail("%s: fabric error: %s", label, got.Err)
	case got.Degraded:
		r.fail("%s: fabric job degraded", label)
	case !reflect.DeepEqual(got.Res, want):
		r.fail("%s: fabric result %+v differs from single-process %+v", label, got.Res, want)
	default:
		return true
	}
	return false
}

// fabricCanaries runs, after the timed passes, the deliberately racy
// mutex at n = 3 through the fabric once as distributed DPOR waves and
// once as reference-mode frontier probes. Each must report the
// violation single-process check.Explore reports: distributed work that
// loses a branch makes the run incorrect instead of only faster.
func fabricCanaries(r *run) error {
	w, ok := fleet.ByName("broken/racy-mutex", 3)
	if !ok {
		return fmt.Errorf("canary broken/racy-mutex is not in the fleet registry")
	}
	jobs := []checkJob{
		{label: "n=3 broken/racy-mutex (waves)", w: w, n: 3, opts: checkOptions(w, false, true)},
		{label: "n=3 broken/racy-mutex (frontier)", w: w, n: 3, opts: checkOptions(w, false, false)},
	}
	out, err := fabricPass(jobs, registry(nil), nil, nil, -1)
	if err != nil {
		return err
	}
	for i, j := range jobs {
		want, err := check.Explore(j.build(), j.w.Check, j.opts)
		if err != nil {
			return fmt.Errorf("%s: single-process reference: %w", j.label, err)
		}
		ok := fabricMatches(r, j.label, out.results[i], want)
		if ok && want.Violation == nil {
			r.fail("%s: no violation found in a deliberately broken algorithm", j.label)
			ok = false
		}
		r.op(ok)
	}
	return nil
}

type fabricPassOut struct {
	// setup runs from the Coordinate call until both workers' hello
	// frames have been read; verdict from then until Coordinate returns.
	setup, verdict float64
	results        []fabric.JobResult
	stats          fabric.Stats
}

// jobTimes is each job's wall-clock at the coordinator, in seconds, from
// fabric.JobResult.Ms. Ms counts whole milliseconds, so each job reads
// the middle of its millisecond.
func (o fabricPassOut) jobTimes() []float64 {
	out := make([]float64, len(o.results))
	for i, res := range o.results {
		out[i] = (float64(res.Ms) + 0.5) / 1e3
	}
	return out
}

// fabricPass runs the jobs through one fabric.Coordinate call over
// loopback TCP with two in-process fabric.Work workers and Shards: 2.
// The workers are started only once the coordinator's listener has
// bound, and dial the address it resolved.
func fabricPass(jobs []checkJob, reg fabric.Registry, rec *frameRecorder, tr *tracer, parent int32) (fabricPassOut, error) {
	var out fabricPassOut
	runtime.GC()
	t := newBenchTransport(rec, tr, parent)
	fjobs := make([]fabric.Job, len(jobs))
	for i, j := range jobs {
		fjobs[i] = fabric.Job{Name: j.w.Name, N: j.n, Opts: j.opts}
	}
	werrs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		addr, ok := <-t.bound
		if !ok {
			return
		}
		var ww sync.WaitGroup
		for i := range werrs {
			ww.Add(1)
			go func() {
				defer ww.Done()
				werrs[i] = fabric.Work(t, addr, reg, nil)
			}()
		}
		ww.Wait()
	}()
	start := time.Now()
	results, stats, err := fabric.Coordinate(t, "127.0.0.1:0", fjobs, reg,
		fabric.CoordOptions{Shards: 2, JobTimeout: time.Minute})
	end := time.Now()
	close(t.bound)
	wg.Wait()
	if err != nil {
		return out, err
	}
	// A job that stops at a violation leaves chunks in flight, and a
	// worker still answering one when Coordinate closes its connection
	// gets a write error, which fabric.Work returns. The results are
	// complete by then, so a worker error fails only a pass in which no
	// job found a violation.
	violation := slices.ContainsFunc(results, func(res fabric.JobResult) bool { return res.Res.Violation != nil })
	for _, werr := range werrs {
		if werr != nil && !violation {
			return out, fmt.Errorf("fabric worker: %w", werr)
		}
	}
	if stats.Workers != 2 {
		return out, fmt.Errorf("fabric: %d workers joined, want 2", stats.Workers)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out.setup = t.ready.Sub(start).Seconds()
	out.verdict = end.Sub(t.ready).Seconds()
	out.results, out.stats = results, stats
	return out, nil
}

// benchTransport is the benchmark's fabric.Transport: plain TCP, plus
// what the benchmark needs to see from outside the fabric. It announces
// the bound address so workers never dial early, and notes when both
// workers' hellos have been read, which ends set-up. Two holds keep
// both workers in every Coordinate call:
//
//   - A connection's first read waits until the coordinator has
//     announced the connection. Its accept loop starts a connection's
//     reader before it announces the connection on the same event
//     channel, and drops a frame from a connection it has not announced
//     yet; a hello read that early is lost and its worker never gets
//     work. The loop calls Accept again only after announcing, so the
//     next Accept call releases the hold.
//   - The coordinator's first frame to each worker waits until it has
//     one for the other worker too: Coordinate puts a worker to work as
//     soon as it has handled its hello, so a short job could otherwise
//     finish on one worker before the other's hello is handled.
//
// With a recorder it also captures every frame, counts bytes each way,
// times the workers' blocked reads and records a span per frame.
type benchTransport struct {
	fabric.TCP
	bound  chan string
	rec    *frameRecorder
	tr     *tracer
	parent int32 // span that frames are recorded under

	mu      sync.Mutex
	hellos  int
	ready   time.Time
	writers int
	both    chan struct{} // closed once the coordinator writes to both workers
}

func newBenchTransport(rec *frameRecorder, tr *tracer, parent int32) *benchTransport {
	return &benchTransport{bound: make(chan string, 1), rec: rec, tr: tr, parent: parent, both: make(chan struct{})}
}

func (t *benchTransport) Serve(addr string) (fabric.Listener, error) {
	ln, err := t.TCP.Serve(addr)
	if err != nil {
		return nil, err
	}
	t.bound <- ln.Addr()
	return &benchListener{Listener: ln, t: t}, nil
}

func (t *benchTransport) Dial(addr string) (io.ReadWriteCloser, error) {
	c, err := t.TCP.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &workerConn{c, t}, nil
}

// helloRead notes one worker's hello; the second one ends set-up.
func (t *benchTransport) helloRead() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hellos++
	if t.hellos == 2 {
		t.ready = time.Now()
	}
}

// firstWrite holds a connection's first frame until the coordinator
// writes to the other worker too. A worker that never joins releases the
// hold after helloWait; Coordinate then reports a single worker and the
// pass fails.
func (t *benchTransport) firstWrite() {
	t.mu.Lock()
	t.writers++
	if t.writers == 2 {
		close(t.both)
	}
	t.mu.Unlock()
	select {
	case <-t.both:
	case <-time.After(helloWait):
	}
}

const helloWait = 30 * time.Second

// sent records one frame written whole (fabric.WriteFrame issues one
// Write per frame) by either side.
func (t *benchTransport) sent(p []byte, start, end time.Time, toWorkers bool) {
	typ := frameType(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec.frames = append(t.rec.frames, append([]byte(nil), p...))
	if toWorkers {
		t.rec.toWorkers += int64(len(p))
	} else {
		t.rec.fromWorkers += int64(len(p))
	}
	t.tr.record(t.parent, kFrame, typ, start, end)
}

// frameType reads a frame's message type from its JSON payload, whose
// first field is always "t".
func frameType(p []byte) string {
	const pre = `{"t":"`
	if len(p) < 4+len(pre) || string(p[4:4+len(pre)]) != pre {
		return ""
	}
	rest := p[4+len(pre):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return string(rest[:i])
	}
	return ""
}

// benchListener is called from the coordinator's accept loop alone.
type benchListener struct {
	fabric.Listener
	t *benchTransport
	// announced is closed when Accept is next called, by which time the
	// coordinator has announced the connection Accept last returned.
	announced chan struct{}
}

func (l *benchListener) Accept() (io.ReadWriteCloser, error) {
	if l.announced != nil {
		close(l.announced)
	}
	c, err := l.Listener.Accept()
	if err != nil {
		l.announced = nil
		return nil, err
	}
	l.announced = make(chan struct{})
	return &coordConn{ReadWriteCloser: c, t: l.t, announced: l.announced}, nil
}

// coordConn is the coordinator's end of one worker connection. The
// coordinator reads it from one goroutine and writes it from another.
type coordConn struct {
	io.ReadWriteCloser
	t         *benchTransport
	announced chan struct{}
	// hello buffers the connection's first frame, the worker's hello,
	// until it is complete.
	hello     []byte
	helloDone bool
	wrote     bool
}

func (c *coordConn) Read(p []byte) (int, error) {
	if !c.helloDone {
		<-c.announced
	}
	n, err := c.ReadWriteCloser.Read(p)
	if !c.helloDone && n > 0 {
		c.hello = append(c.hello, p[:n]...)
		if len(c.hello) >= 4 && len(c.hello) >= 4+int(binary.BigEndian.Uint32(c.hello)) {
			c.helloDone = true
			c.t.helloRead()
		}
	}
	return n, err
}

func (c *coordConn) Write(p []byte) (int, error) {
	if !c.wrote {
		c.wrote = true
		c.t.firstWrite()
	}
	if c.t.rec == nil {
		return c.ReadWriteCloser.Write(p)
	}
	start := time.Now()
	n, err := c.ReadWriteCloser.Write(p)
	c.t.sent(p, start, time.Now(), true)
	return n, err
}

// workerConn is a worker's end of its connection.
type workerConn struct {
	io.ReadWriteCloser
	t *benchTransport
}

func (c *workerConn) Read(p []byte) (int, error) {
	if c.t.rec == nil {
		return c.ReadWriteCloser.Read(p)
	}
	t0 := time.Now()
	n, err := c.ReadWriteCloser.Read(p)
	c.t.rec.wait.Add(int64(time.Since(t0)))
	return n, err
}

func (c *workerConn) Write(p []byte) (int, error) {
	if c.t.rec == nil {
		return c.ReadWriteCloser.Write(p)
	}
	start := time.Now()
	n, err := c.ReadWriteCloser.Write(p)
	c.t.sent(p, start, time.Now(), false)
	return n, err
}

// frameRecorder holds what a traced pass captured on the wire. The
// frames and byte counts are guarded by the transport's mutex.
type frameRecorder struct {
	frames                 [][]byte
	toWorkers, fromWorkers int64
	wait                   atomic.Int64 // nanoseconds workers spent blocked in Read
}

// codec decodes every captured frame with fabric.ReadFrame and encodes
// it again with fabric.WriteFrame: the wire codec's cost for the pass.
func (f *frameRecorder) codec() (float64, error) {
	t0 := time.Now()
	for _, fr := range f.frames {
		var m fabric.Msg
		if err := fabric.ReadFrame(bytes.NewReader(fr), &m); err != nil {
			return 0, err
		}
		if err := fabric.WriteFrame(io.Discard, &m); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}
