package fabric

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"cfc/internal/check"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// The binary payload codec of protocol v3; "Wire format" in doc.go
// documents the layout. Every Msg field is written in one fixed order
// whatever the message type, so a frame carries no field names and the
// codec needs no per-type layout.

// msgTags lists the message types in tag order: a payload's first byte
// is its type's index here.
var msgTags = [...]string{
	MsgHello, MsgJob, MsgResult, MsgShardOpen, MsgShardClose,
	MsgProbe, MsgProbed, MsgWave, MsgWaved, MsgError, MsgBye,
}

// encoder appends a payload to b.
type encoder struct{ b []byte }

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) int(v int)        { e.varint(int64(v)) }
func (e *encoder) u8(v uint8)       { e.b = append(e.b, v) }
func (e *encoder) count(n int)      { e.uvarint(uint64(n)) }

func (e *encoder) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) str(s string) {
	e.count(len(s))
	e.b = append(e.b, s...)
}

func (e *encoder) ints(s []int) {
	e.count(len(s))
	for _, v := range s {
		e.int(v)
	}
}

func (e *encoder) msg(m *Msg) error {
	tag := -1
	for i, t := range msgTags {
		if t == m.T {
			tag = i
			break
		}
	}
	if tag < 0 {
		return fmt.Errorf("fabric: unknown message type %q", m.T)
	}
	e.u8(uint8(tag))
	e.int(m.V)
	e.int(m.ID)
	e.int(m.Shard)
	e.flag(m.Job != nil)
	if m.Job != nil {
		if err := e.job(m.Job); err != nil {
			return err
		}
	}
	e.count(len(m.Nodes))
	for i := range m.Nodes {
		e.node(&m.Nodes[i])
	}
	e.count(len(m.Reports))
	for _, chain := range m.Reports {
		e.count(len(chain))
		for i := range chain {
			e.report(&chain[i])
		}
	}
	e.count(len(m.WReports))
	for i := range m.WReports {
		e.waveReport(&m.WReports[i])
	}
	e.flag(m.Res != nil)
	if m.Res != nil {
		e.result(m.Res)
	}
	e.varint(m.Ms)
	e.varint(m.Replayed)
	e.varint(m.Saved)
	e.str(m.Err)
	return nil
}

// job writes the options as JSON: job and shard-open frames are a few
// per job, and JSON carries any field check.Options gains.
func (e *encoder) job(j *JobSpec) error {
	opts, err := json.Marshal(j.Opts)
	if err != nil {
		return fmt.Errorf("fabric: marshal job options: %w", err)
	}
	e.str(j.Name)
	e.int(j.N)
	e.count(len(opts))
	e.b = append(e.b, opts...)
	return nil
}

func (e *encoder) node(n *WireNode) {
	e.int(n.P)
	e.ints(n.S)
	e.uvarint(n.Sleep)
	e.flag(n.Full)
}

func (e *encoder) violation(v *WireViolation) {
	e.flag(v != nil)
	if v != nil {
		e.ints(v.Schedule)
		e.str(v.Err)
	}
}

func (e *encoder) result(r *WireResult) {
	e.int(r.States)
	e.int(r.Runs)
	e.flag(r.Truncated)
	e.int(r.ReducedNodes)
	e.flag(r.PORDisabled)
	e.flag(r.SymmetryApplied)
	e.violation(r.Vio)
}

// report writes a Report; the embedded ProbeReport.Violation is not
// wire data (the violation travels flattened as Vio).
func (e *encoder) report(r *Report) {
	e.uvarint(r.Hash)
	e.flag(r.Leaf)
	e.flag(r.DepthTruncated)
	e.flag(r.Dup)
	e.flag(r.Reduced)
	e.count(len(r.Branches))
	for _, b := range r.Branches {
		e.branch(b)
	}
	e.violation(r.Vio)
}

func (e *encoder) branch(b check.Branch) {
	e.int(b.Entry)
	e.uvarint(b.Sleep)
}

func (e *encoder) waveReport(r *check.WaveReport) {
	e.flag(r.HasViol)
	e.str(r.Viol)
	e.flag(r.Leaf)
	e.flag(r.Run)
	e.flag(r.Trunc)
	e.uvarint(r.Key)
	e.uvarint(r.First)
	e.uvarint(r.Live)
	e.uvarint(r.Sleep)
	e.count(len(r.Pend))
	for i := range r.Pend {
		e.pendingOp(&r.Pend[i])
	}
	e.depthMasks(r.Masks)
	e.depthMasks(r.Comp)
}

func (e *encoder) pendingOp(p *sim.PendingOp) {
	e.int(p.PID)
	e.u8(uint8(p.Kind))
	e.u8(uint8(p.Op))
	e.varint(int64(p.Cell))
	e.u8(p.Shift)
	e.u8(p.Width)
	e.uvarint(p.Arg)
	e.u8(uint8(p.Phase))
	e.uvarint(p.Out)
}

func (e *encoder) depthMasks(ms []check.DepthMask) {
	e.count(len(ms))
	for _, m := range ms {
		e.depthMask(m)
	}
}

func (e *encoder) depthMask(m check.DepthMask) {
	e.int(m.Depth)
	e.uvarint(m.Mask)
}

// Minimum encoded sizes of the slice elements, which bound every count
// a decoder accepts. A zero value encodes to the minimum: every varint,
// bool, presence byte and length prefix of it is one byte.
var (
	nodeMin       = encodedLen(func(e *encoder) { e.node(&WireNode{}) })
	reportMin     = encodedLen(func(e *encoder) { e.report(&Report{}) })
	branchMin     = encodedLen(func(e *encoder) { e.branch(check.Branch{}) })
	waveReportMin = encodedLen(func(e *encoder) { e.waveReport(&check.WaveReport{}) })
	pendingOpMin  = encodedLen(func(e *encoder) { e.pendingOp(&sim.PendingOp{}) })
	depthMaskMin  = encodedLen(func(e *encoder) { e.depthMask(check.DepthMask{}) })
)

func encodedLen(f func(*encoder)) int {
	var e encoder
	f(&e)
	return len(e.b)
}

// decoder reads a payload from b. The first error sticks: it empties b,
// so every later read fails too and returns a zero value, and the
// caller checks err once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("fabric: malformed frame: "+format, args...)
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *decoder) u8() uint8 {
	if len(d.b) == 0 {
		d.fail("truncated payload")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) flag() bool {
	switch v := d.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte %d", v)
		return false
	}
}

// count reads a length prefix for elements of at least size encoded
// bytes each. A count the rest of the payload cannot hold is rejected
// before anything is allocated for it.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.count(1)
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	s := make([]int, n)
	for i := range s {
		s[i] = d.int()
	}
	return s
}

// msg decodes a whole payload into m, rejecting trailing bytes. Empty
// slices decode to nil.
func (d *decoder) msg(m *Msg) error {
	tag := d.u8()
	if d.err == nil && int(tag) >= len(msgTags) {
		d.fail("unknown message tag %d", tag)
	}
	if d.err != nil {
		return d.err
	}
	m.T = msgTags[tag]
	m.V = d.int()
	m.ID = d.int()
	m.Shard = d.int()
	if d.flag() {
		m.Job = d.job()
	}
	if n := d.count(nodeMin); n > 0 {
		m.Nodes = make([]WireNode, n)
		for i := range m.Nodes {
			d.node(&m.Nodes[i])
		}
	}
	if n := d.count(1); n > 0 {
		m.Reports = make([][]Report, n)
		for i := range m.Reports {
			if k := d.count(reportMin); k > 0 {
				m.Reports[i] = make([]Report, k)
				for j := range m.Reports[i] {
					d.report(&m.Reports[i][j])
				}
			}
		}
	}
	if n := d.count(waveReportMin); n > 0 {
		m.WReports = make([]check.WaveReport, n)
		for i := range m.WReports {
			d.waveReport(&m.WReports[i])
		}
	}
	if d.flag() {
		m.Res = d.result()
	}
	m.Ms = d.varint()
	m.Replayed = d.varint()
	m.Saved = d.varint()
	m.Err = d.str()
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *decoder) job() *JobSpec {
	j := &JobSpec{Name: d.str(), N: d.int()}
	if opts := d.bytes(); d.err == nil {
		if err := json.Unmarshal(opts, &j.Opts); err != nil {
			d.fail("job options: %v", err)
		}
	}
	return j
}

func (d *decoder) node(n *WireNode) {
	n.P = d.int()
	n.S = d.ints()
	n.Sleep = d.uvarint()
	n.Full = d.flag()
}

func (d *decoder) violation() *WireViolation {
	if !d.flag() {
		return nil
	}
	return &WireViolation{Schedule: d.ints(), Err: d.str()}
}

func (d *decoder) result() *WireResult {
	r := &WireResult{}
	r.States = d.int()
	r.Runs = d.int()
	r.Truncated = d.flag()
	r.ReducedNodes = d.int()
	r.PORDisabled = d.flag()
	r.SymmetryApplied = d.flag()
	r.Vio = d.violation()
	return r
}

func (d *decoder) report(r *Report) {
	r.Hash = d.uvarint()
	r.Leaf = d.flag()
	r.DepthTruncated = d.flag()
	r.Dup = d.flag()
	r.Reduced = d.flag()
	if n := d.count(branchMin); n > 0 {
		r.Branches = make([]check.Branch, n)
		for i := range r.Branches {
			r.Branches[i] = check.Branch{Entry: d.int(), Sleep: d.uvarint()}
		}
	}
	r.Vio = d.violation()
}

func (d *decoder) waveReport(r *check.WaveReport) {
	r.HasViol = d.flag()
	r.Viol = d.str()
	r.Leaf = d.flag()
	r.Run = d.flag()
	r.Trunc = d.flag()
	r.Key = d.uvarint()
	r.First = d.uvarint()
	r.Live = d.uvarint()
	r.Sleep = d.uvarint()
	if n := d.count(pendingOpMin); n > 0 {
		r.Pend = make([]sim.PendingOp, n)
		for i := range r.Pend {
			d.pendingOp(&r.Pend[i])
		}
	}
	r.Masks = d.depthMasks()
	r.Comp = d.depthMasks()
}

func (d *decoder) pendingOp(p *sim.PendingOp) {
	p.PID = d.int()
	p.Kind = sim.EventKind(d.u8())
	p.Op = opset.Op(d.u8())
	cell := d.varint()
	if int64(int32(cell)) != cell {
		d.fail("cell %d out of range", cell)
	}
	p.Cell = int32(cell)
	p.Shift = d.u8()
	p.Width = d.u8()
	p.Arg = d.uvarint()
	p.Phase = sim.Phase(d.u8())
	p.Out = d.uvarint()
}

func (d *decoder) depthMasks() []check.DepthMask {
	n := d.count(depthMaskMin)
	if n == 0 {
		return nil
	}
	ms := make([]check.DepthMask, n)
	for i := range ms {
		ms[i] = check.DepthMask{Depth: d.int(), Mask: d.uvarint()}
	}
	return ms
}
