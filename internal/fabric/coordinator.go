package fabric

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"

	"cfc/internal/check"
)

// Registry resolves a workload name at a process count to its program
// and property — the serializable job namespace coordinator and workers
// must share (cfccheck passes the fleet registry on both sides). The
// coordinator needs it too: every violation that arrives over the wire
// is re-verified against a locally built program before it is believed.
type Registry func(name string, n int) (build check.Builder, prop check.Property, ok bool)

// Job is one portfolio entry to check.
type Job struct {
	Name string
	N    int
	Opts check.Options
}

// JobResult is one job's merged outcome, in job-list order.
type JobResult struct {
	Job Job
	// Res is the exploration result — for completed jobs identical to
	// what the single-process check.Explore returns for Job.Opts.
	Res check.Result
	// Err is a fabric- or worker-level failure ("" when the job
	// completed); Res is meaningless when set.
	Err string
	// Degraded reports the job exceeded the coordinator's job timeout
	// and was abandoned: for a whole-entry job Res is empty, for a
	// sharded one it holds the partial counters at abandonment.
	Degraded bool
	// Sharded reports the job ran as frontier subtrees across workers
	// rather than as one whole-entry job.
	Sharded bool
	// Ms is the job's wall-clock at the worker (whole-entry jobs) or
	// the coordinator (sharded jobs).
	Ms int64
}

// Stats summarises one Coordinate run.
type Stats struct {
	// Workers counts distinct worker connections that completed the
	// hello handshake.
	Workers int
	// Probes counts frontier nodes probed across all sharded passes.
	Probes int
	// WaveTasks counts DPOR wave tasks expanded across all distributed
	// waves.
	WaveTasks int
	// EventsReplayed and EventsSaved sum the workers' replay accounting
	// (check.ProbeStats), in schedule decisions: decisions actually
	// executed positioning live sessions, and the rest of the probed
	// schedules, which extensions and rewinds kept. A root-replaying
	// fabric would have executed Replayed+Saved.
	EventsReplayed int64
	EventsSaved    int64
	// WallMs is the whole run's wall-clock.
	WallMs int64
}

// CoordOptions configures a Coordinate run.
type CoordOptions struct {
	// Shards > 1 enables state-space distribution: non-DPOR jobs run as
	// frontier subtree probes across all connected workers, and DPOR
	// jobs distribute each exploration wave's pure expansion pass while
	// the serial commit stays here (see check.WaveMaster). The value is
	// a mode switch, not a count — the sharding fans out to however many
	// workers are connected.
	Shards int
	// JobTimeout abandons a job (DEGRADED) that has not completed this
	// long after dispatch. Zero means no timeout.
	JobTimeout time.Duration
	// Log receives human-oriented progress lines (worker joins/leaves,
	// requeues); nil discards them.
	Log io.Writer
}

// probeBatch is how many frontier nodes travel per probe message, and
// probeWindow how many probe messages may be outstanding per worker —
// enough to hide one round-trip behind computation without letting a
// slow worker hoard frontier the others could drain.
const (
	probeBatch  = 48
	probeWindow = 2
)

// Coordinate serves the job queue at addr until every job has a result,
// then disconnects all workers and returns the merged results in
// job-list order. It is the fabric's single point of truth: visited-set
// arbitration for sharded jobs, violation re-verification, requeue on
// worker loss and the timeout clock all live here, on one event loop.
func Coordinate(tr Transport, addr string, jobs []Job, reg Registry, co CoordOptions) ([]JobResult, Stats, error) {
	start := time.Now()
	ln, err := tr.Serve(addr)
	if err != nil {
		return nil, Stats{}, err
	}
	defer ln.Close()

	c := &coord{
		reg:    reg,
		co:     co,
		events: make(chan event, 128),
		closed: make(chan struct{}),
		conns:  make(map[*conn]*workerState),
	}
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		c.acceptLoop(ln)
	}()

	var tick <-chan time.Time
	if co.JobTimeout > 0 {
		period := co.JobTimeout / 4
		if period > 250*time.Millisecond {
			period = 250 * time.Millisecond
		}
		if period < time.Millisecond {
			period = time.Millisecond
		}
		t := time.NewTicker(period)
		defer t.Stop()
		tick = t.C
	}

	// Whole-entry jobs run first, fanned out over the worker pool; then
	// each sharded job in turn gets the whole pool to itself — as
	// frontier probes (non-DPOR) or distributed waves (DPOR).
	results := make([]JobResult, len(jobs))
	var whole, sharded []int
	for i, j := range jobs {
		results[i].Job = j
		if co.Shards > 1 {
			sharded = append(sharded, i)
		} else {
			whole = append(whole, i)
		}
	}
	c.runWhole(jobs, whole, results, tick)
	for _, i := range sharded {
		t0 := time.Now()
		res, errStr, degraded := c.runSharded(jobs[i], tick)
		results[i].Res = res
		results[i].Err = errStr
		results[i].Degraded = degraded
		results[i].Sharded = true
		results[i].Ms = time.Since(t0).Milliseconds()
	}
	c.shutdown(ln, acceptDone)
	return results, Stats{
		Workers: c.workersSeen, Probes: c.probes, WaveTasks: c.waveTasks,
		EventsReplayed: c.evReplayed, EventsSaved: c.evSaved,
		WallMs: time.Since(start).Milliseconds(),
	}, nil
}

// event is one occurrence delivered to the coordinator loop: a new
// connection, a frame from a worker, or a connection ending (err holds
// the reader's failure for logging; io.EOF is a clean close).
type event struct {
	kind int // evConn, evMsg, evGone
	c    *conn
	msg  *Msg
	err  error
}

const (
	evConn = iota
	evMsg
	evGone
)

// workerState is the coordinator's view of one connection.
type workerState struct {
	ready bool // hello completed
	// slot is the worker's ShardMaster owner id (1-based; assigned at
	// hello, never reused) — the affinity key that routes a subtree's
	// descendants back to the prober holding its prefix.
	slot int
	// Whole-entry phase: the dispatched job (index into the job list,
	// -1 when idle), its message id and its timeout deadline.
	jobIdx   int
	jobID    int
	deadline time.Time
	// Sharded phase: whether this worker holds the current shard open,
	// the frontier nodes riding each outstanding probe message, and the
	// wave-task ranges [lo, hi) riding each outstanding wave message.
	shardOpen   bool
	outstanding map[int][]check.Node
	chunks      map[int][2]int
}

type coord struct {
	reg    Registry
	co     CoordOptions
	events chan event
	closed chan struct{}

	conns       map[*conn]*workerState
	nextID      int
	shardSeq    int
	workersSeen int
	probes      int
	waveTasks   int
	evReplayed  int64
	evSaved     int64
}

func (c *coord) logf(format string, args ...any) {
	if c.co.Log != nil {
		fmt.Fprintf(c.co.Log, "fabric: "+format+"\n", args...)
	}
}

func (c *coord) acceptLoop(ln Listener) {
	for {
		rwc, err := ln.Accept()
		if err != nil {
			return
		}
		// The loop drops frames from connections it does not know, so the
		// connection is announced before its reader may deliver one: a
		// hello already in flight would otherwise be lost.
		cn := newConn(rwc)
		select {
		case c.events <- event{kind: evConn, c: cn}:
		case <-c.closed:
			cn.close()
			return
		}
		go cn.read(c.events, c.closed)
	}
}

// admit registers a new connection (not yet ready — it must hello first).
func (c *coord) admit(cn *conn) {
	c.conns[cn] = &workerState{jobIdx: -1}
}

// drop forgets a connection and returns whatever work it held.
func (c *coord) drop(cn *conn, requeueJob func(idx int), master *check.ShardMaster) {
	w := c.conns[cn]
	if w == nil {
		return
	}
	if w.jobIdx >= 0 && requeueJob != nil {
		requeueJob(w.jobIdx)
	}
	if master != nil && len(w.outstanding) > 0 {
		n := 0
		for _, nodes := range w.outstanding {
			master.Requeue(nodes)
			n += len(nodes)
		}
		c.logf("worker lost, %d frontier nodes requeued", n)
	}
	delete(c.conns, cn)
	cn.close()
}

// hello handles a worker's handshake; a version mismatch drops it.
func (c *coord) hello(cn *conn, w *workerState, m *Msg) bool {
	if m.V != ProtoVersion {
		c.logf("worker speaks protocol %d, want %d; dropping", m.V, ProtoVersion)
		delete(c.conns, cn)
		cn.close()
		return false
	}
	w.ready = true
	c.workersSeen++
	w.slot = c.workersSeen
	c.logf("worker connected (%d live)", c.liveWorkers())
	return true
}

func (c *coord) liveWorkers() int {
	n := 0
	for _, w := range c.conns {
		if w.ready {
			n++
		}
	}
	return n
}

// runWhole fans the whole-entry jobs out over the worker pool until all
// have results.
func (c *coord) runWhole(jobs []Job, idxs []int, results []JobResult, tick <-chan time.Time) {
	if len(idxs) == 0 {
		return
	}
	queue := append([]int(nil), idxs...)
	done := make(map[int]bool, len(idxs))
	remaining := len(idxs)
	requeue := func(idx int) {
		if !done[idx] {
			c.logf("requeueing job %s after worker loss", jobs[idx].Name)
			queue = append(queue, idx)
		}
	}
	finish := func(idx int, r JobResult) {
		if done[idx] {
			return
		}
		r.Job = jobs[idx]
		results[idx] = r
		done[idx] = true
		remaining--
	}

	for remaining > 0 {
		// Dispatch to every idle ready worker.
		for cn, w := range c.conns {
			if !w.ready || w.jobIdx >= 0 || len(queue) == 0 {
				continue
			}
			idx := queue[0]
			queue = queue[1:]
			c.nextID++
			w.jobIdx, w.jobID = idx, c.nextID
			if c.co.JobTimeout > 0 {
				w.deadline = time.Now().Add(c.co.JobTimeout)
			}
			j := jobs[idx]
			cn.send(&Msg{T: MsgJob, ID: w.jobID, Job: &JobSpec{Name: j.Name, N: j.N, Opts: j.Opts}})
		}

		select {
		case ev := <-c.events:
			switch ev.kind {
			case evConn:
				c.admit(ev.c)
			case evGone:
				c.drop(ev.c, requeue, nil)
			case evMsg:
				w := c.conns[ev.c]
				if w == nil {
					break
				}
				m := ev.msg
				switch m.T {
				case MsgHello:
					c.hello(ev.c, w, m)
				case MsgResult, MsgError:
					if w.jobIdx < 0 || m.ID != w.jobID {
						break // stale reply for a job already timed out
					}
					idx := w.jobIdx
					w.jobIdx = -1
					if m.T == MsgError {
						finish(idx, JobResult{Err: m.Err})
						break
					}
					if m.Res == nil {
						finish(idx, JobResult{Err: "worker sent result frame without a result"})
						break
					}
					res := m.Res.toCheck()
					if errStr := c.verifyWitness(jobs[idx], res); errStr != "" {
						finish(idx, JobResult{Err: errStr})
						break
					}
					finish(idx, JobResult{Res: res, Ms: m.Ms})
				}
			}
		case <-tick:
			now := time.Now()
			for _, w := range c.conns {
				if w.jobIdx >= 0 && !done[w.jobIdx] && now.After(w.deadline) {
					c.logf("job %s timed out after %s", jobs[w.jobIdx].Name, c.co.JobTimeout)
					finish(w.jobIdx, JobResult{Degraded: true})
					// The worker stays marked busy until it replies or
					// disconnects; its late reply is dropped by the id
					// check above.
				}
			}
		}
	}
}

// verifyWitness re-verifies a violating result's witness by serial
// replay on a locally built program — the coordinator never repeats a
// verdict it has not reproduced. Returns a non-empty error string on
// failure.
func (c *coord) verifyWitness(j Job, res check.Result) string {
	if res.Violation == nil {
		return ""
	}
	build, prop, ok := c.reg(j.Name, j.N)
	if !ok {
		return fmt.Sprintf("unknown workload %q in local registry", j.Name)
	}
	ok, err := check.ReplaysToViolation(build, prop, j.Opts, res.Violation.Schedule)
	if err != nil {
		return fmt.Sprintf("witness re-verification: %v", err)
	}
	if !ok {
		return fmt.Sprintf("witness %v did not reproduce the violation on replay", res.Violation.Schedule)
	}
	return ""
}

// runSharded distributes one job's state-space exploration across all
// workers: DPOR jobs as waves (runWaves), everything else as frontier
// subtrees — including the PORAuto second pass when the options ask for
// it, with any violation canonicalised by serial rerun — reproducing
// exactly what the single-process Explore returns for the same options.
func (c *coord) runSharded(j Job, tick <-chan time.Time) (check.Result, string, bool) {
	if j.Opts.DPOR {
		return c.runWaves(j, tick)
	}
	res, errStr, degraded := c.shardPass(j, j.Opts, tick)
	if errStr != "" || degraded {
		return res, errStr, degraded
	}
	if j.Opts.POR && j.Opts.PORAuto && !check.PORAutoKeepReduced(res) {
		ref := j.Opts
		ref.POR, ref.PORAuto = false, false
		full, errStr, degraded := c.shardPass(j, ref, tick)
		if errStr != "" || degraded {
			return full, errStr, degraded
		}
		res = check.PORAutoPick(res, full)
	}
	return res, "", false
}

// shardPass drives one sharded exploration of j under opts to closure
// (or violation, timeout, or unrecoverable error).
func (c *coord) shardPass(j Job, opts check.Options, tick <-chan time.Time) (check.Result, string, bool) {
	build, prop, ok := c.reg(j.Name, j.N)
	if !ok {
		return check.Result{}, fmt.Sprintf("unknown workload %q in local registry", j.Name), false
	}
	c.shardSeq++
	sid := c.shardSeq
	spec := &JobSpec{Name: j.Name, N: j.N, Opts: opts}
	master := check.NewShardMaster(opts)
	var deadline time.Time
	if c.co.JobTimeout > 0 {
		deadline = time.Now().Add(c.co.JobTimeout)
	}

	open := func(cn *conn, w *workerState) {
		w.shardOpen = true
		w.outstanding = make(map[int][]check.Node)
		cn.send(&Msg{T: MsgShardOpen, Shard: sid, Job: spec})
	}
	for cn, w := range c.conns {
		if w.ready {
			open(cn, w)
		}
	}
	closeAll := func() {
		for cn, w := range c.conns {
			if w.shardOpen {
				cn.send(&Msg{T: MsgShardClose, Shard: sid})
				w.shardOpen = false
				w.outstanding = nil
			}
		}
	}

	for !master.Done() {
		// Keep every open worker's probe window full. Next pops the
		// worker's own subtree deque first (stealing when idle) and sorts
		// the batch into DFS order, so consecutive probes extend or
		// shallowly rewind the worker's live session.
		for cn, w := range c.conns {
			if !w.shardOpen {
				continue
			}
			for len(w.outstanding) < probeWindow {
				nodes := master.Next(w.slot, probeBatch)
				if len(nodes) == 0 {
					break
				}
				c.nextID++
				w.outstanding[c.nextID] = nodes
				cn.send(&Msg{T: MsgProbe, ID: c.nextID, Shard: sid, Nodes: encodeNodes(nodes)})
			}
		}

		select {
		case ev := <-c.events:
			switch ev.kind {
			case evConn:
				c.admit(ev.c)
			case evGone:
				c.drop(ev.c, nil, master)
			case evMsg:
				w := c.conns[ev.c]
				if w == nil {
					break
				}
				m := ev.msg
				switch m.T {
				case MsgHello:
					// A worker joining mid-exploration is put to work
					// immediately.
					if c.hello(ev.c, w, m) {
						open(ev.c, w)
					}
				case MsgProbed:
					nodes, ok := w.outstanding[m.ID]
					if !ok {
						break // stale reply from a cancelled pass
					}
					if len(m.Reports) != len(nodes) {
						c.logf("worker answered %d nodes with %d reports; dropping it", len(nodes), len(m.Reports))
						c.drop(ev.c, nil, master)
						break
					}
					delete(w.outstanding, m.ID)
					c.probes += len(nodes)
					c.evReplayed += m.Replayed
					c.evSaved += m.Saved
					for i, wire := range m.Reports {
						chain := make([]check.ProbeReport, len(wire))
						for j, rep := range wire {
							chain[j] = rep.toCheck()
						}
						master.Report(w.slot, nodes[i], chain)
					}
				case MsgError:
					closeAll()
					return check.Result{}, fmt.Sprintf("worker error probing %s: %s", j.Name, m.Err), false
				}
			}
		case <-tick:
			if !deadline.IsZero() && time.Now().After(deadline) {
				c.logf("sharded job %s timed out after %s", j.Name, c.co.JobTimeout)
				closeAll()
				return master.Result(), "", true
			}
		}
	}
	closeAll()

	res := master.Result()
	if res.Violation != nil {
		// Canonicalise exactly as the in-process parallel explorer does:
		// the serial rerun reproduces the depth-first-minimal witness, so
		// the verdict is independent of which shard tripped first.
		canon, err := check.CanonicalResult(build, prop, opts, res)
		if err != nil {
			return check.Result{}, fmt.Sprintf("canonical serial rerun: %v", err), false
		}
		res = canon
	}
	return res, "", false
}

// runWaves runs one DPOR job as distributed waves: the WaveMaster (node
// tree, visited set, serial commit pass) stays here, and each wave's
// pure expansion pass fans out over the connected workers in contiguous
// chunks — contiguous tasks are DFS siblings sharing schedule prefixes,
// so a chunk rides a worker's live session the same way a sorted probe
// batch does. Each wave is a barrier: all reports come home (requeued
// from lost workers as needed — they are pure), then the commit runs,
// so the result is byte-identical to the in-process engine at any
// worker count by construction. Witnesses are still re-verified by
// replay before they are believed.
func (c *coord) runWaves(j Job, tick <-chan time.Time) (check.Result, string, bool) {
	build, prop, ok := c.reg(j.Name, j.N)
	if !ok {
		return check.Result{}, fmt.Sprintf("unknown workload %q in local registry", j.Name), false
	}
	master, err := check.NewWaveMaster(build, prop, j.Opts)
	if err != nil {
		return check.Result{}, err.Error(), false
	}
	c.shardSeq++
	sid := c.shardSeq
	spec := &JobSpec{Name: j.Name, N: j.N, Opts: j.Opts}
	var deadline time.Time
	if c.co.JobTimeout > 0 {
		deadline = time.Now().Add(c.co.JobTimeout)
	}

	open := func(cn *conn, w *workerState) {
		w.shardOpen = true
		w.chunks = make(map[int][2]int)
		cn.send(&Msg{T: MsgShardOpen, Shard: sid, Job: spec})
	}
	for cn, w := range c.conns {
		if w.ready {
			open(cn, w)
		}
	}
	closeAll := func() {
		for cn, w := range c.conns {
			if w.shardOpen {
				cn.send(&Msg{T: MsgShardClose, Shard: sid})
				w.shardOpen = false
				w.chunks = nil
			}
		}
	}

	for !master.Done() {
		wave := master.Wave()
		reports := make([]check.WaveReport, len(wave))
		remaining := len(wave)
		var pend [][2]int
		for lo := 0; lo < len(wave); lo += probeBatch {
			pend = append(pend, [2]int{lo, min(lo+probeBatch, len(wave))})
		}
		for remaining > 0 {
			// Keep every open worker's chunk window full.
			for cn, w := range c.conns {
				if !w.shardOpen {
					continue
				}
				for len(w.chunks) < probeWindow && len(pend) > 0 {
					ck := pend[0]
					pend = pend[1:]
					c.nextID++
					w.chunks[c.nextID] = ck
					cn.send(&Msg{T: MsgWave, ID: c.nextID, Shard: sid, Nodes: encodeNodes(wave[ck[0]:ck[1]])})
				}
			}

			select {
			case ev := <-c.events:
				switch ev.kind {
				case evConn:
					c.admit(ev.c)
				case evGone:
					if w := c.conns[ev.c]; w != nil && len(w.chunks) > 0 {
						n := 0
						for _, ck := range w.chunks {
							pend = append(pend, ck)
							n += ck[1] - ck[0]
						}
						c.logf("worker lost, %d wave tasks requeued", n)
					}
					c.drop(ev.c, nil, nil)
				case evMsg:
					w := c.conns[ev.c]
					if w == nil {
						break
					}
					m := ev.msg
					switch m.T {
					case MsgHello:
						// A worker joining mid-exploration helps with the
						// next chunks immediately.
						if c.hello(ev.c, w, m) {
							open(ev.c, w)
						}
					case MsgWaved:
						ck, ok := w.chunks[m.ID]
						if !ok {
							break // stale reply from a cancelled pass
						}
						if len(m.WReports) != ck[1]-ck[0] {
							c.logf("worker answered %d wave tasks with %d reports; dropping it", ck[1]-ck[0], len(m.WReports))
							for _, rq := range w.chunks {
								pend = append(pend, rq)
							}
							w.chunks = nil
							c.drop(ev.c, nil, nil)
							break
						}
						delete(w.chunks, m.ID)
						copy(reports[ck[0]:ck[1]], m.WReports)
						remaining -= ck[1] - ck[0]
						c.waveTasks += ck[1] - ck[0]
						c.evReplayed += m.Replayed
						c.evSaved += m.Saved
					case MsgError:
						closeAll()
						return check.Result{}, fmt.Sprintf("worker error expanding %s: %s", j.Name, m.Err), false
					}
				}
			case <-tick:
				if !deadline.IsZero() && time.Now().After(deadline) {
					c.logf("sharded job %s timed out after %s", j.Name, c.co.JobTimeout)
					closeAll()
					return master.Result(), "", true
				}
			}
		}
		if err := master.Commit(reports); err != nil {
			closeAll()
			return check.Result{}, err.Error(), false
		}
	}
	closeAll()

	res := master.Result()
	if errStr := c.verifyWitness(j, res); errStr != "" {
		return check.Result{}, errStr, false
	}
	return res, "", false
}

// shutdown stops the accept loop, then says goodbye to every worker and
// closes the connections, flushing queued frames first. A worker that
// connected after the event loop's last read was announced but never
// admitted; its connection is still in the event buffer, and without
// the goodbye it would wait for work forever.
func (c *coord) shutdown(ln Listener, acceptDone <-chan struct{}) {
	ln.Close()
	close(c.closed)
	<-acceptDone
	for len(c.events) > 0 {
		if ev := <-c.events; ev.kind == evConn {
			c.admit(ev.c)
		}
	}
	for cn := range c.conns {
		cn.send(&Msg{T: MsgBye})
		cn.closeAfterDrain()
	}
	c.conns = map[*conn]*workerState{}
}

// conn is one worker connection as the coordinator sees it: a reader
// goroutine turning frames into events (started by the accept loop once
// the connection is announced), and a writer goroutine draining a
// buffered queue — so the event loop never blocks on a peer's pace
// (net.Pipe writes are rendezvous; TCP buffers can fill).
type conn struct {
	rwc  io.ReadWriteCloser
	out  chan *Msg
	quit chan struct{}
	once sync.Once
}

// outQueue bounds a connection's send queue. The coordinator keeps at
// most probeWindow probe frames plus a handful of control frames in
// flight per worker, far below this; a full queue therefore indicates a
// wedged peer, and send's quit branch keeps even that from deadlocking
// the loop once the connection is dropped.
const outQueue = 256

// newConn starts the connection's writer; read is its reader.
func newConn(rwc io.ReadWriteCloser) *conn {
	cn := &conn{rwc: rwc, out: make(chan *Msg, outQueue), quit: make(chan struct{})}
	go func() { // writer
		for {
			select {
			case m := <-cn.out:
				if m == nil {
					cn.close()
					return
				}
				if err := WriteFrame(rwc, m); err != nil {
					cn.close()
					return
				}
			case <-cn.quit:
				return
			}
		}
	}()
	return cn
}

// read turns the connection's frames into events until it fails.
func (cn *conn) read(events chan event, closed chan struct{}) {
	br := bufio.NewReaderSize(cn.rwc, 64<<10)
	for {
		var m Msg
		if err := ReadFrame(br, &m); err != nil {
			select {
			case events <- event{kind: evGone, c: cn, err: err}:
			case <-closed:
			}
			return
		}
		select {
		case events <- event{kind: evMsg, c: cn, msg: &m}:
		case <-closed:
			return
		}
	}
}

// send queues a frame; it never blocks longer than the connection lives.
func (cn *conn) send(m *Msg) {
	select {
	case cn.out <- m:
	case <-cn.quit:
	}
}

// closeAfterDrain lets the writer flush everything queued so far, then
// closes the connection (the nil message is the writer's flush-and-stop
// sentinel).
func (cn *conn) closeAfterDrain() {
	select {
	case cn.out <- nil:
	case <-cn.quit:
	}
}

func (cn *conn) close() {
	cn.once.Do(func() {
		close(cn.quit)
		cn.rwc.Close()
	})
}
