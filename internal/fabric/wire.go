package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"cfc/internal/check"
)

// ProtoVersion is the wire protocol version; hello frames carry it and
// the coordinator rejects mismatched workers instead of guessing.
// Version 2 added DPOR wave distribution (the wave/waved frames),
// delta-encoded node batches, descent-chain probe replies and the
// replayed/saved event counters on probe replies. Version 3 replaced the
// JSON payload with the binary codec in codec.go; the messages and their
// fields are version 2's. A version 2 hello fails to decode as version 3,
// which drops its connection like a mismatched version does. Version 4
// changed the state digest behind ProbeReport.Hash and WaveReport.Key
// (the checker's incremental state identity); the frames are version
// 3's, but a version 3 worker's digests never match a version 4
// coordinator's visited keys, so mixing them would double-count states.
// Version 5 removed frontier probing: the probe/probed frames, the
// descent-chain reports (Msg.Reports) and the cache-bypass bit of a node
// (WireNode.Full) are gone, so only whole jobs and DPOR waves travel. A
// version 4 hello carries one more count byte than a version 5 one and
// fails to decode. Version 6 dropped a result's PORAuto fallback bit
// along with the static reduction; a version 5 hello carries no result,
// so it decodes, and the version check drops it. Version 7 changed the
// state digest behind WaveReport.Key again, to the checker's additive
// digest; the frames are version 6's, so a version 6 hello decodes, and
// only the version check keeps its never-matching keys out of the
// coordinator's visited set.
const ProtoVersion = 7

// MaxFrame bounds a single frame's payload. A frame announcing a larger
// length is a protocol violation and drops the connection. ReadFrame
// grows its buffer only as payload bytes arrive (see readChunk), so a
// declared length never turns into an allocation by itself; the codec
// bounds every count inside the payload by the bytes that remain, so the
// decoded Msg stays proportional to the payload too.
const MaxFrame = 8 << 20

// readChunk is ReadFrame's first payload buffer. A frame up to this size
// — every frame an exploration sends, in practice — is read into one
// allocation; a larger one doubles the buffer each time it fills, so what
// a peer that declares a long frame and stalls pins is bounded by the
// bytes it sent, plus this chunk.
const readChunk = 64 << 10

// Message types (Msg.T).
const (
	MsgHello      = "hello"       // worker → coordinator: V
	MsgJob        = "job"         // coordinator → worker: ID, Job
	MsgResult     = "result"      // worker → coordinator: ID, Res, Ms
	MsgShardOpen  = "shard-open"  // coordinator → worker: Shard, Job
	MsgShardClose = "shard-close" // coordinator → worker: Shard
	MsgWave       = "wave"        // coordinator → worker: ID, Shard, Nodes
	MsgWaved      = "waved"       // worker → coordinator: ID, Shard, WReports, Replayed, Saved
	MsgError      = "error"       // worker → coordinator: ID or Shard, Err
	MsgBye        = "bye"         // coordinator → worker: done, disconnect
)

// Msg is the single frame envelope; T selects which fields are
// meaningful (see the message type constants).
type Msg struct {
	T        string
	V        int
	ID       int
	Shard    int
	Job      *JobSpec
	Nodes    []WireNode
	WReports []check.WaveReport
	Res      *WireResult
	Ms       int64
	// Replayed and Saved are the wave prober's replay-count deltas for
	// this reply (see check.ProbeStats).
	Replayed int64
	Saved    int64
	Err      string
}

// WireNode is one wave task delta-encoded against the FIRST node of its
// chunk: P leading schedule entries are shared with the first node's
// schedule, S is the remaining tail. The first node of a chunk always
// ships whole (P = 0). A chunk is a contiguous run of a wave's tasks,
// which share long schedule prefixes, so deep in the tree each collapses
// to a few tail entries.
type WireNode struct {
	P     int
	S     []int
	Sleep uint64
}

// encodeNodes delta-encodes a batch for the wire.
func encodeNodes(nodes []check.Node) []WireNode {
	if len(nodes) == 0 {
		return nil
	}
	out := make([]WireNode, len(nodes))
	first := nodes[0].Schedule
	out[0] = WireNode{S: first, Sleep: nodes[0].Sleep}
	for i, nd := range nodes[1:] {
		p := 0
		for p < len(first) && p < len(nd.Schedule) && first[p] == nd.Schedule[p] {
			p++
		}
		out[i+1] = WireNode{P: p, S: nd.Schedule[p:], Sleep: nd.Sleep}
	}
	return out
}

// decodeNodes reverses encodeNodes. A prefix length the first node
// cannot supply is a protocol error.
func decodeNodes(w []WireNode) ([]check.Node, error) {
	if len(w) == 0 {
		return nil, nil
	}
	if w[0].P != 0 {
		return nil, fmt.Errorf("fabric: malformed node batch: first node claims a %d-entry prefix", w[0].P)
	}
	first := w[0].S
	out := make([]check.Node, len(w))
	out[0] = check.Node{Schedule: first, Sleep: w[0].Sleep}
	for i, n := range w[1:] {
		if n.P < 0 || n.P > len(first) {
			return nil, fmt.Errorf("fabric: malformed node batch: prefix %d exceeds first schedule of %d", n.P, len(first))
		}
		s := make([]int, n.P+len(n.S))
		copy(s, first[:n.P])
		copy(s[n.P:], n.S)
		out[i+1] = check.Node{Schedule: s, Sleep: n.Sleep}
	}
	return out, nil
}

// JobSpec names one unit of work: a workload from the shared registry
// plus the exploration options. For whole-entry jobs the worker runs
// check.Explore with exactly these options; for shard-open it builds a
// check.WaveProber from them.
type JobSpec struct {
	Name string
	N    int
	Opts check.Options
}

// WireViolation is a check.Violation flattened for the wire (an error
// value travels as its message). The string form is only provisional:
// every violation that crosses the wire is re-verified by serial replay
// at the coordinator before it is reported.
type WireViolation struct {
	Schedule []int
	Err      string
}

func toWireViolation(v *check.Violation) *WireViolation {
	if v == nil {
		return nil
	}
	return &WireViolation{Schedule: v.Schedule, Err: v.Err.Error()}
}

func (v *WireViolation) toCheck() *check.Violation {
	if v == nil {
		return nil
	}
	return &check.Violation{Schedule: v.Schedule, Err: errors.New(v.Err)}
}

// WireResult is a check.Result in wire shape.
type WireResult struct {
	States          int
	Runs            int
	Truncated       bool
	ReducedNodes    int
	SymmetryApplied bool
	Vio             *WireViolation
}

func toWireResult(r check.Result) *WireResult {
	return &WireResult{
		States: r.States, Runs: r.Runs, Truncated: r.Truncated,
		ReducedNodes: r.ReducedNodes, SymmetryApplied: r.SymmetryApplied,
		Vio: toWireViolation(r.Violation),
	}
}

func (r *WireResult) toCheck() check.Result {
	return check.Result{
		States: r.States, Runs: r.Runs, Truncated: r.Truncated,
		ReducedNodes: r.ReducedNodes, SymmetryApplied: r.SymmetryApplied,
		Violation: r.Vio.toCheck(),
	}
}

// framePool recycles WriteFrame's buffers. An io.Writer must not
// retain the slice it is given, so a buffer is free again once Write
// returns.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame encodes m and writes one length-prefixed frame. The payload
// is encoded straight after a reserved header, and header and payload
// go out in a single Write so transports see whole frames (the pipe
// transport's rendezvous writes stay one hand-off per frame).
func WriteFrame(w io.Writer, m *Msg) error {
	buf := framePool.Get().(*[]byte)
	defer framePool.Put(buf)
	e := encoder{b: append((*buf)[:0], 0, 0, 0, 0)}
	err := e.msg(m)
	*buf = e.b
	if err != nil {
		return err
	}
	n := len(e.b) - 4
	if n > MaxFrame {
		return fmt.Errorf("fabric: frame of %d bytes exceeds MaxFrame", n)
	}
	binary.BigEndian.PutUint32(e.b, uint32(n))
	if _, err := w.Write(e.b); err != nil {
		return fmt.Errorf("fabric: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame into m. A length outside
// (0, MaxFrame] or a payload the codec rejects is a protocol error;
// callers treat it as fatal for the connection, never for the process.
func ReadFrame(r io.Reader, m *Msg) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 || n > MaxFrame {
		return fmt.Errorf("fabric: malformed frame: length %d", n)
	}
	buf := make([]byte, min(n, readChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, buf[got:])
		got += k
		if err != nil {
			return fmt.Errorf("fabric: truncated frame: %w", err)
		}
		if got == n {
			break
		}
		buf = append(buf, make([]byte, min(got, n-got))...)
	}
	*m = Msg{}
	d := decoder{b: buf}
	return d.msg(m)
}
