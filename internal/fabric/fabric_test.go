package fabric_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cfc/internal/check"
	"cfc/internal/fabric"
	"cfc/internal/fleet"
)

// fleetRegistry is the job namespace both sides share in production
// (cfccheck passes the same thing).
func fleetRegistry(name string, n int) (check.Builder, check.Property, bool) {
	w, ok := fleet.ByName(name, n)
	if !ok {
		return nil, nil, false
	}
	return w.Builder(n), w.Check, true
}

// testJobs is a portfolio slice exercising every job shape: a DPOR entry
// (sharded runs distribute its waves), two reference entries, and a
// broken workload, explored by the reference, whose violation exercises
// witness re-verification. Only the DPOR entry shards; the others
// travel whole at any Shards setting.
func testJobs() []fabric.Job {
	ref := check.Options{MaxDepth: 60, MaxStates: 1 << 17, CollapseSpins: true}
	dpor := ref
	dpor.DPOR = true
	return []fabric.Job{
		{Name: "mutex/peterson-2p", N: 2, Opts: dpor},
		{Name: "mutex/tas-lock", N: 2, Opts: ref},
		{Name: "naming/tas-scan", N: 2, Opts: ref},
		{Name: "broken/racy-mutex", N: 2, Opts: ref},
	}
}

// singleProcess computes the single-process expectation for each job.
func singleProcess(t *testing.T, jobs []fabric.Job) []check.Result {
	t.Helper()
	out := make([]check.Result, len(jobs))
	for i, j := range jobs {
		build, prop, ok := fleetRegistry(j.Name, j.N)
		if !ok {
			t.Fatalf("unknown workload %s", j.Name)
		}
		res, err := check.Explore(build, prop, j.Opts)
		if err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		out[i] = res
	}
	return out
}

func assertEqual(t *testing.T, name string, want, got check.Result) {
	t.Helper()
	if want.States != got.States || want.Runs != got.Runs || want.Truncated != got.Truncated ||
		want.ReducedNodes != got.ReducedNodes || want.SymmetryApplied != got.SymmetryApplied {
		t.Errorf("%s: counters diverge: want %+v, got %+v", name, want, got)
	}
	wv, gv := want.Violation, got.Violation
	if (wv == nil) != (gv == nil) {
		t.Errorf("%s: verdicts diverge: want violation %v, got %v", name, wv, gv)
		return
	}
	if wv == nil {
		return
	}
	if len(wv.Schedule) != len(gv.Schedule) {
		t.Errorf("%s: witness diverges: want %v, got %v", name, wv.Schedule, gv.Schedule)
		return
	}
	for i := range wv.Schedule {
		if wv.Schedule[i] != gv.Schedule[i] {
			t.Errorf("%s: witness diverges: want %v, got %v", name, wv.Schedule, gv.Schedule)
			return
		}
	}
	if wv.Err.Error() != gv.Err.Error() {
		t.Errorf("%s: violation error diverges: want %q, got %q", name, wv.Err, gv.Err)
	}
}

// gatedTransport is a pipe transport whose coordinator sends no frame
// until the hellos of all n workers are in its event queue. A small job
// list takes milliseconds, so without the gate the first worker to join
// can drain the queue before the others' hellos are read, and a test
// that counts workers would race them.
type gatedTransport struct {
	*fabric.PipeTransport
	n int
}

func (t gatedTransport) Serve(addr string) (fabric.Listener, error) {
	ln, err := t.PipeTransport.Serve(addr)
	if err != nil {
		return nil, err
	}
	return gatedListener{ln, &gate{n: t.n, open: make(chan struct{})}}, nil
}

// gate opens once n connections have arrived.
type gate struct {
	mu   sync.Mutex
	n    int
	open chan struct{}
}

func (g *gate) arrive() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n--; g.n == 0 {
		close(g.open)
	}
}

type gatedListener struct {
	fabric.Listener
	g *gate
}

func (l gatedListener) Accept() (io.ReadWriteCloser, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{ReadWriteCloser: c, g: l.g}, nil
}

// gatedConn is the coordinator's end of one worker connection. A pipe
// read returns one whole frame, so its second Read means the coordinator
// has read the worker's hello and queued it as an event; its writes wait
// until every worker got that far.
type gatedConn struct {
	io.ReadWriteCloser
	g     *gate
	reads int
}

func (c *gatedConn) Read(b []byte) (int, error) {
	if c.reads++; c.reads == 2 {
		c.g.arrive()
	}
	return c.ReadWriteCloser.Read(b)
}

func (c *gatedConn) Write(b []byte) (int, error) {
	<-c.g.open
	return c.ReadWriteCloser.Write(b)
}

// coordinate runs a coordinator over the pipe transport with nWorkers
// standard workers, all joined before any job is dispatched, and returns
// its results.
func coordinate(t *testing.T, jobs []fabric.Job, nWorkers int, co fabric.CoordOptions) ([]fabric.JobResult, fabric.Stats) {
	t.Helper()
	pt := gatedTransport{fabric.NewPipeTransport(), nWorkers}
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fabric.Work(pt, "coord", fleetRegistry, nil); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	results, stats, err := fabric.Coordinate(pt, "coord", jobs, fleetRegistry, co)
	if err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	wg.Wait()
	return results, stats
}

// TestWholeJobsEqualSingleProcess is the fabric's core contract at the
// whole-entry granularity: coordinator + N workers report exactly what
// one process reports, for every engine.
func TestWholeJobsEqualSingleProcess(t *testing.T) {
	jobs := testJobs()
	want := singleProcess(t, jobs)
	for _, nWorkers := range []int{1, 2, 3} {
		results, stats := coordinate(t, jobs, nWorkers, fabric.CoordOptions{})
		if stats.Workers != nWorkers {
			t.Errorf("workers=%d: stats report %d workers", nWorkers, stats.Workers)
		}
		for i, r := range results {
			if r.Err != "" {
				t.Errorf("workers=%d %s: %s", nWorkers, r.Job.Name, r.Err)
				continue
			}
			if r.Degraded || r.Sharded {
				t.Errorf("workers=%d %s: unexpected degraded=%v sharded=%v", nWorkers, r.Job.Name, r.Degraded, r.Sharded)
			}
			assertEqual(t, r.Job.Name, want[i], r.Res)
		}
	}
}

// TestShardedJobsEqualSingleProcess is the contract with sharding on:
// the DPOR job runs as distributed waves across the workers, while the
// reference jobs, the violating one included, travel whole, and
// every job still reports exactly the single-process result. The
// locality counters must show the wave probers' live sessions engaged.
func TestShardedJobsEqualSingleProcess(t *testing.T) {
	jobs := testJobs()
	want := singleProcess(t, jobs)
	results, stats := coordinate(t, jobs, 2, fabric.CoordOptions{Shards: 2})
	if stats.WaveTasks == 0 {
		t.Errorf("sharded run expanded no wave tasks; DPOR job did not distribute")
	}
	if stats.EventsReplayed == 0 || stats.EventsSaved == 0 {
		t.Errorf("locality counters flat: replayed %d, saved %d", stats.EventsReplayed, stats.EventsSaved)
	}
	for i, r := range results {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Job.Name, r.Err)
			continue
		}
		if r.Sharded != r.Job.Opts.DPOR {
			t.Errorf("%s: sharded=%v, want %v (only DPOR jobs shard)", r.Job.Name, r.Sharded, r.Job.Opts.DPOR)
		}
		assertEqual(t, r.Job.Name, want[i], r.Res)
	}
}

// rawConn dials the coordinator and speaks the wire protocol by hand —
// the tests' misbehaving-worker puppet.
type rawConn struct {
	t   *testing.T
	rwc io.ReadWriteCloser
}

func dialRaw(t *testing.T, pt *fabric.PipeTransport, addr string) *rawConn {
	t.Helper()
	var rwc io.ReadWriteCloser
	var err error
	for i := 0; i < 100; i++ {
		rwc, err = pt.Dial(addr)
		if err == nil {
			return &rawConn{t, rwc}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("dial %s: %v", addr, err)
	return nil
}

func (r *rawConn) hello() {
	if err := fabric.WriteFrame(r.rwc, &fabric.Msg{T: fabric.MsgHello, V: fabric.ProtoVersion}); err != nil {
		r.t.Errorf("raw hello: %v", err)
	}
}

func (r *rawConn) read() fabric.Msg {
	var m fabric.Msg
	if err := fabric.ReadFrame(r.rwc, &m); err != nil {
		r.t.Errorf("raw read: %v", err)
	}
	return m
}

// TestWorkerDisconnectRequeues covers the worker-loss paths at both
// granularities: a worker that takes work and vanishes mid-job costs
// nothing — its whole-entry job or its outstanding wave chunks are
// re-queued, the run converges on the surviving worker, and the results
// still equal the single process.
func TestWorkerDisconnectRequeues(t *testing.T) {
	jobs := testJobs()
	want := singleProcess(t, jobs)

	for _, shards := range []int{0, 2} {
		pt := fabric.NewPipeTransport()
		resCh := make(chan []fabric.JobResult, 1)
		go func() {
			results, _, err := fabric.Coordinate(pt, "coord", jobs, fleetRegistry, fabric.CoordOptions{Shards: shards})
			if err != nil {
				t.Errorf("Coordinate: %v", err)
			}
			resCh <- results
		}()

		// The flaky worker handshakes, accepts its first piece of work —
		// a whole-entry job, or (sharded phase) a wave chunk — and drops
		// the connection without answering.
		flaky := dialRaw(t, pt, "coord")
		flaky.hello()
		for {
			m := flaky.read()
			if m.T == fabric.MsgJob || m.T == fabric.MsgWave {
				break
			}
		}
		flaky.rwc.Close()

		// The reliable worker joins after the loss and finishes the run.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fabric.Work(pt, "coord", fleetRegistry, nil); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
		results := <-resCh
		wg.Wait()
		for i, r := range results {
			if r.Err != "" {
				t.Errorf("shards=%d %s: %s", shards, r.Job.Name, r.Err)
				continue
			}
			assertEqual(t, r.Job.Name, want[i], r.Res)
		}
	}
}

// TestMalformedFramesTolerated covers the hostile-bytes path: garbage
// frames and an absurd length prefix kill only their own connection; the
// coordinator survives and completes the run through a healthy worker.
func TestMalformedFramesTolerated(t *testing.T) {
	jobs := testJobs()[:2]
	want := singleProcess(t, jobs)

	pt := fabric.NewPipeTransport()
	resCh := make(chan []fabric.JobResult, 1)
	go func() {
		results, _, err := fabric.Coordinate(pt, "coord", jobs, fleetRegistry, fabric.CoordOptions{})
		if err != nil {
			t.Errorf("Coordinate: %v", err)
		}
		resCh <- results
	}()

	// Connection 1: a payload that is not a frame (its first byte, 'h',
	// is no message tag).
	junk := dialRaw(t, pt, "coord")
	var frame [16]byte
	binary.BigEndian.PutUint32(frame[:4], 12)
	copy(frame[4:], "hello world!")
	if _, err := junk.rwc.Write(frame[:]); err != nil {
		t.Fatalf("write junk: %v", err)
	}
	// Connection 2: a length prefix promising a 1 GiB frame.
	huge := dialRaw(t, pt, "coord")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := huge.rwc.Write(hdr[:]); err != nil {
		t.Fatalf("write huge header: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fabric.Work(pt, "coord", fleetRegistry, nil); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	results := <-resCh
	wg.Wait()
	junk.rwc.Close()
	huge.rwc.Close()
	for i, r := range results {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Job.Name, r.Err)
			continue
		}
		assertEqual(t, r.Job.Name, want[i], r.Res)
	}
}

// TestJobTimeoutDegrades covers the wedged-worker path: a worker that
// accepts a job and never answers must cost one DEGRADED row, not a
// hung coordinator.
func TestJobTimeoutDegrades(t *testing.T) {
	jobs := testJobs()[:1]
	pt := fabric.NewPipeTransport()
	resCh := make(chan []fabric.JobResult, 1)
	go func() {
		results, _, err := fabric.Coordinate(pt, "coord", jobs, fleetRegistry,
			fabric.CoordOptions{JobTimeout: 150 * time.Millisecond})
		if err != nil {
			t.Errorf("Coordinate: %v", err)
		}
		resCh <- results
	}()

	wedged := dialRaw(t, pt, "coord")
	wedged.hello()
	m := wedged.read()
	if m.T != fabric.MsgJob {
		t.Fatalf("wedged worker got %q, want job", m.T)
	}
	// ... and never answers.

	select {
	case results := <-resCh:
		if !results[0].Degraded {
			t.Errorf("job completed without a worker: %+v", results[0])
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("coordinator hung on a wedged worker")
	}
	wedged.rwc.Close()
}

// TestProtocolVersionMismatch pins the handshake: an old or future
// worker is dropped at hello, and the run completes on a good one. A
// protocol version 2 worker's hello is JSON, and a version 4 worker's
// carries a count field version 5 dropped, so neither decodes as a
// version 7 frame at all; their connections are dropped the same way.
// Version 5 and 6 workers' hellos decode, and the version check drops
// them: a version 6 worker's digests would never match this version's
// visited keys.
func TestProtocolVersionMismatch(t *testing.T) {
	jobs := testJobs()[:1]
	want := singleProcess(t, jobs)

	pt := fabric.NewPipeTransport()
	resCh := make(chan []fabric.JobResult, 1)
	go func() {
		results, stats, err := fabric.Coordinate(pt, "coord", jobs, fleetRegistry, fabric.CoordOptions{})
		if err != nil {
			t.Errorf("Coordinate: %v", err)
		}
		if stats.Workers != 1 {
			t.Errorf("stats count %d workers, want 1 (mismatched hello must not count)", stats.Workers)
		}
		resCh <- results
	}()

	future := dialRaw(t, pt, "coord")
	if err := fabric.WriteFrame(future.rwc, &fabric.Msg{T: fabric.MsgHello, V: fabric.ProtoVersion + 1}); err != nil {
		t.Fatalf("future hello: %v", err)
	}
	v2 := dialRaw(t, pt, "coord")
	hello := []byte(`{"t":"hello","v":2}`)
	if _, err := v2.rwc.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(hello))), hello...)); err != nil {
		t.Fatalf("v2 hello: %v", err)
	}
	// A hello in this version's codec that announces version 3 decodes,
	// and the version check must still drop it.
	v3 := dialRaw(t, pt, "coord")
	if err := fabric.WriteFrame(v3.rwc, &fabric.Msg{T: fabric.MsgHello, V: 3}); err != nil {
		t.Fatalf("v3 hello: %v", err)
	}
	v4 := dialRaw(t, pt, "coord")
	if _, err := v4.rwc.Write(v4Hello); err != nil {
		t.Fatalf("v4 hello: %v", err)
	}
	var m5 fabric.Msg
	if err := fabric.ReadFrame(bytes.NewReader(v5Hello), &m5); err != nil || m5.T != fabric.MsgHello || m5.V != 5 {
		t.Fatalf("the v5 hello should decode as a version 5 hello: %+v, %v", m5, err)
	}
	v5 := dialRaw(t, pt, "coord")
	if _, err := v5.rwc.Write(v5Hello); err != nil {
		t.Fatalf("v5 hello: %v", err)
	}
	var m6 fabric.Msg
	if err := fabric.ReadFrame(bytes.NewReader(v6Hello), &m6); err != nil || m6.T != fabric.MsgHello || m6.V != 6 {
		t.Fatalf("the v6 hello should decode as a version 6 hello: %+v, %v", m6, err)
	}
	v6 := dialRaw(t, pt, "coord")
	if _, err := v6.rwc.Write(v6Hello); err != nil {
		t.Fatalf("v6 hello: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fabric.Work(pt, "coord", fleetRegistry, nil); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	results := <-resCh
	wg.Wait()
	// A dropped connection reads end of stream; one the coordinator kept
	// would have been sent bye.
	for name, c := range map[string]*rawConn{"future": future, "v2": v2, "v3": v3, "v4": v4, "v5": v5, "v6": v6} {
		var m fabric.Msg
		if err := fabric.ReadFrame(c.rwc, &m); err == nil {
			t.Errorf("%s worker was sent a %q frame; its connection should have been dropped at hello", name, m.T)
		}
		c.rwc.Close()
	}
	assertEqual(t, results[0].Job.Name, want[0], results[0].Res)
}

// TestWorkEndsCleanlyWhenCoordinatorClosesFirst plays a coordinator that
// hands out a job and closes the connection without reading the reply,
// as a coordinator does when a job ends on a violation while a worker is
// still answering. The worker's reply then fails to write; that is the
// normal end of its session, not an error.
func TestWorkEndsCleanlyWhenCoordinatorClosesFirst(t *testing.T) {
	pt := fabric.NewPipeTransport()
	ln, err := pt.Serve("coord")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- fabric.Work(pt, "coord", fleetRegistry, nil) }()
	rwc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var hello fabric.Msg
	if err := fabric.ReadFrame(rwc, &hello); err != nil || hello.T != fabric.MsgHello {
		t.Fatalf("hello: %+v, %v", hello, err)
	}
	job := &fabric.JobSpec{Name: "mutex/peterson-2p", N: 2, Opts: check.Options{MaxDepth: 40, CollapseSpins: true, DPOR: true}}
	if err := fabric.WriteFrame(rwc, &fabric.Msg{T: fabric.MsgJob, ID: 1, Job: job}); err != nil {
		t.Fatal(err)
	}
	rwc.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker whose coordinator closed first: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker still running after its coordinator closed")
	}
}

// lateTransport serves exactly one connection, handed to the accept loop
// as soon as the coordinator listens; Dial returns its worker end. With
// an empty job list the coordinator is done at once, so the connection
// is announced but never admitted by the event loop.
type lateTransport struct{ server, client net.Conn }

func (t *lateTransport) Dial(string) (io.ReadWriteCloser, error) { return t.client, nil }

func (t *lateTransport) Serve(string) (fabric.Listener, error) {
	return &lateListener{conn: t.server, done: make(chan struct{})}, nil
}

type lateListener struct {
	conn io.ReadWriteCloser // handed out by the first Accept
	done chan struct{}
	once sync.Once
}

func (l *lateListener) Accept() (io.ReadWriteCloser, error) {
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	<-l.done
	return nil, errors.New("listener closed")
}

func (l *lateListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *lateListener) Addr() string { return "late" }

// TestCoordinatorReleasesLateWorker pins shutdown against a worker that
// connects after the coordinator's last event: the coordinator must
// still say goodbye (or close the connection), or the worker waits for
// work forever.
func TestCoordinatorReleasesLateWorker(t *testing.T) {
	for i := 0; i < 50; i++ {
		server, client := net.Pipe()
		tr := &lateTransport{server: server, client: client}
		done := make(chan error, 1)
		go func() { done <- fabric.Work(tr, "late", fleetRegistry, nil) }()
		if _, _, err := fabric.Coordinate(tr, "late", nil, fleetRegistry, fabric.CoordOptions{}); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("iteration %d: late worker: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: late worker still waiting after the coordinator returned", i)
		}
	}
}
