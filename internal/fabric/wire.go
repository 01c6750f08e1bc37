package fabric

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"cfc/internal/check"
)

// ProtoVersion is the wire protocol version; hello frames carry it and
// the coordinator rejects mismatched workers instead of guessing.
// Version 2 added DPOR wave distribution (the wave/waved frames),
// delta-encoded node batches, descent-chain probe replies and the
// replayed/saved event counters on probe replies.
const ProtoVersion = 2

// MaxFrame bounds a single frame's JSON payload. A frame announcing a
// larger length is a protocol violation and drops the connection — the
// guard that keeps a malformed or hostile length prefix from turning
// into an arbitrary allocation.
const MaxFrame = 8 << 20

// Message types (Msg.T).
const (
	MsgHello      = "hello"       // worker → coordinator: {v}
	MsgJob        = "job"         // coordinator → worker: {id, job}
	MsgResult     = "result"      // worker → coordinator: {id, res, ms}
	MsgShardOpen  = "shard-open"  // coordinator → worker: {shard, job}
	MsgShardClose = "shard-close" // coordinator → worker: {shard}
	MsgProbe      = "probe"       // coordinator → worker: {id, shard, nodes}
	MsgProbed     = "probed"      // worker → coordinator: {id, shard, reports, rp, sv}
	MsgWave       = "wave"        // coordinator → worker: {id, shard, nodes}
	MsgWaved      = "waved"       // worker → coordinator: {id, shard, wreports, rp, sv}
	MsgError      = "error"       // worker → coordinator: {id, err}
	MsgBye        = "bye"         // coordinator → worker: done, disconnect
)

// Msg is the single frame envelope; T selects which fields are
// meaningful (see the message type constants).
type Msg struct {
	T     string     `json:"t"`
	V     int        `json:"v,omitempty"`
	ID    int        `json:"id,omitempty"`
	Shard int        `json:"shard,omitempty"`
	Job   *JobSpec   `json:"job,omitempty"`
	Nodes []WireNode `json:"nodes,omitempty"`
	// Reports carries one descent chain per probed node of the batch,
	// aligned with the probe frame's Nodes.
	Reports  [][]Report         `json:"reports,omitempty"`
	WReports []check.WaveReport `json:"wreports,omitempty"`
	Res      *WireResult        `json:"res,omitempty"`
	Ms       int64              `json:"ms,omitempty"`
	// Replayed and Saved are the probing prober's replay-count deltas
	// for this reply (see check.ProbeStats).
	Replayed int64  `json:"rp,omitempty"`
	Saved    int64  `json:"sv,omitempty"`
	Err      string `json:"err,omitempty"`
}

// WireNode is one frontier node (or wave task) delta-encoded against
// the FIRST node of its batch: P leading schedule entries are shared
// with the first node's schedule, S is the remaining tail. The first
// node of a batch always ships whole (P = 0). Batches ship in DFS
// order sorted by decision-stack prefix, so sibling runs deep in the
// tree collapse to a few tail entries each — the frame-size half of the
// prefix-locality story (the replay half is the prober's live session).
type WireNode struct {
	P     int    `json:"p,omitempty"`
	S     []int  `json:"s,omitempty"`
	Sleep uint64 `json:"sleep,omitempty"`
	Full  bool   `json:"f,omitempty"`
}

// encodeNodes delta-encodes a batch for the wire.
func encodeNodes(nodes []check.Node) []WireNode {
	if len(nodes) == 0 {
		return nil
	}
	out := make([]WireNode, len(nodes))
	first := nodes[0].Schedule
	out[0] = WireNode{S: first, Sleep: nodes[0].Sleep, Full: nodes[0].Full}
	for i, nd := range nodes[1:] {
		p := 0
		for p < len(first) && p < len(nd.Schedule) && first[p] == nd.Schedule[p] {
			p++
		}
		out[i+1] = WireNode{P: p, S: nd.Schedule[p:], Sleep: nd.Sleep, Full: nd.Full}
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
	out[0] = check.Node{Schedule: first, Sleep: w[0].Sleep, Full: w[0].Full}
	for i, n := range w[1:] {
		if n.P < 0 || n.P > len(first) {
			return nil, fmt.Errorf("fabric: malformed node batch: prefix %d exceeds first schedule of %d", n.P, len(first))
		}
		s := make([]int, n.P+len(n.S))
		copy(s, first[:n.P])
		copy(s[n.P:], n.S)
		out[i+1] = check.Node{Schedule: s, Sleep: n.Sleep, Full: n.Full}
	}
	return out, nil
}

// JobSpec names one unit of work: a workload from the shared registry
// plus the exploration options. For whole-entry jobs the worker runs
// check.Explore with exactly these options; for shard-open it builds a
// check.Prober from them.
type JobSpec struct {
	Name string        `json:"name"`
	N    int           `json:"n"`
	Opts check.Options `json:"opts"`
}

// WireViolation is a check.Violation flattened for the wire (error
// values do not marshal). The string form is only provisional: every
// violation that crosses the wire is re-verified or canonically
// re-derived by serial replay at the coordinator before it is reported.
type WireViolation struct {
	Schedule []int  `json:"sched"`
	Err      string `json:"err"`
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
	States          int            `json:"states"`
	Runs            int            `json:"runs"`
	Truncated       bool           `json:"trunc,omitempty"`
	ReducedNodes    int            `json:"reduced,omitempty"`
	PORDisabled     bool           `json:"porDisabled,omitempty"`
	SymmetryApplied bool           `json:"sym,omitempty"`
	Vio             *WireViolation `json:"vio,omitempty"`
}

func toWireResult(r check.Result) *WireResult {
	return &WireResult{
		States: r.States, Runs: r.Runs, Truncated: r.Truncated,
		ReducedNodes: r.ReducedNodes, PORDisabled: r.PORDisabled,
		SymmetryApplied: r.SymmetryApplied, Vio: toWireViolation(r.Violation),
	}
}

func (r *WireResult) toCheck() check.Result {
	return check.Result{
		States: r.States, Runs: r.Runs, Truncated: r.Truncated,
		ReducedNodes: r.ReducedNodes, PORDisabled: r.PORDisabled,
		SymmetryApplied: r.SymmetryApplied, Violation: r.Vio.toCheck(),
	}
}

// Report is a check.ProbeReport in wire shape: the embedded report's
// fields marshal directly (its Violation field is wire-excluded) and the
// violation travels flattened alongside.
type Report struct {
	check.ProbeReport
	Vio *WireViolation `json:"vio,omitempty"`
}

func toWireReport(rep check.ProbeReport) Report {
	w := Report{ProbeReport: rep, Vio: toWireViolation(rep.Violation)}
	w.ProbeReport.Violation = nil
	return w
}

func (r Report) toCheck() check.ProbeReport {
	rep := r.ProbeReport
	rep.Violation = r.Vio.toCheck()
	return rep
}

// WriteFrame marshals m and writes one length-prefixed frame. The
// header and payload go out in a single Write so transports see whole
// frames (the pipe transport's rendezvous writes stay one hand-off per
// frame).
func WriteFrame(w io.Writer, m *Msg) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("fabric: marshal frame: %w", err)
	}
	if len(data) > MaxFrame {
		return fmt.Errorf("fabric: frame of %d bytes exceeds MaxFrame", len(data))
	}
	buf := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(buf, uint32(len(data)))
	copy(buf[4:], data)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("fabric: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame into m. A length outside
// (0, MaxFrame] or a payload that is not valid JSON is a protocol error;
// callers treat it as fatal for the connection, never for the process.
func ReadFrame(r io.Reader, m *Msg) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return fmt.Errorf("fabric: malformed frame: length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("fabric: truncated frame: %w", err)
	}
	*m = Msg{}
	if err := json.Unmarshal(buf, m); err != nil {
		return fmt.Errorf("fabric: malformed frame: %w", err)
	}
	return nil
}
