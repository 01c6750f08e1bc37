package fabric_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"

	"cfc/internal/check"
	"cfc/internal/fabric"
)

// msgTypes is every message type, in the codec's tag order.
var msgTypes = []string{
	fabric.MsgHello, fabric.MsgJob, fabric.MsgResult, fabric.MsgShardOpen, fabric.MsgShardClose,
	fabric.MsgWave, fabric.MsgWaved, fabric.MsgError, fabric.MsgBye,
}

// filledMsg returns a Msg of type typ with every wire field reachable
// from it set to a distinct non-zero value: two elements in every slice,
// a value behind every pointer. A field a wire type gains is filled too,
// so a codec that does not carry it fails the round trip.
func filledMsg(tb testing.TB, typ string) *fabric.Msg {
	tb.Helper()
	m := &fabric.Msg{}
	var n uint64
	fill(tb, reflect.ValueOf(m).Elem(), "Msg", &n)
	m.T = typ
	return m
}

func fill(tb testing.TB, v reflect.Value, path string, n *uint64) {
	tb.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(tb, v.Field(i), path+"."+v.Type().Field(i).Name, n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(tb, v.Elem(), path, n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(tb, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Alternate signs, and reach past 32 bits where the type allows,
		// to exercise the zig-zag varints.
		*n++
		x := int64(*n)
		if *n%2 == 1 {
			x = -x
		}
		if v.Type().Bits() == 64 {
			x <<= 40
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*n++
		x := *n
		if v.Type().Bits() == 64 {
			x |= 1 << 63
		}
		v.SetUint(x)
	default:
		tb.Fatalf("%s: the round-trip test cannot fill a %s; extend it and the codec", path, v.Kind())
	}
	if *n > 255 {
		tb.Fatalf("%s: more than 255 distinct values; 8-bit fields would repeat", path)
	}
}

// frame is m as WriteFrame puts it on the wire.
func frame(tb testing.TB, m *fabric.Msg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := fabric.WriteFrame(&buf, m); err != nil {
		tb.Fatalf("WriteFrame(%s): %v", m.T, err)
	}
	return buf.Bytes()
}

// rawFrame puts a length prefix in front of payload.
func rawFrame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// v4Hello is a protocol version 4 worker's hello as it went on the wire:
// tag 0, V 4, then eleven zero fields, one more than version 5 has (v4
// carried a probe-report count).
var v4Hello = rawFrame([]byte{0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

// v5Hello is a protocol version 5 worker's hello as it went on the wire:
// tag 0, V 5, then ten zero fields. A hello carries no result, the only
// part of the frame version 6 changed, so it decodes under version 6
// and only the version check drops it.
var v5Hello = rawFrame([]byte{0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

// TestFrameRoundTrip requires ReadFrame(WriteFrame(m)) to equal m for a
// Msg with every wire field set, under every message type, and for a
// Msg whose slices hold zero-valued elements.
func TestFrameRoundTrip(t *testing.T) {
	var msgs []*fabric.Msg
	for _, typ := range msgTypes {
		msgs = append(msgs, filledMsg(t, typ))
	}
	msgs = append(msgs, &fabric.Msg{T: fabric.MsgHello, V: fabric.ProtoVersion}, &fabric.Msg{
		T:        fabric.MsgWaved,
		Job:      &fabric.JobSpec{},
		Nodes:    []fabric.WireNode{{}},
		WReports: []check.WaveReport{{}},
		Res:      &fabric.WireResult{Vio: &fabric.WireViolation{}},
	})
	for _, m := range msgs {
		var back fabric.Msg
		if err := fabric.ReadFrame(bytes.NewReader(frame(t, m)), &back); err != nil {
			t.Fatalf("%s: ReadFrame: %v", m.T, err)
		}
		if !reflect.DeepEqual(*m, back) {
			t.Errorf("%s: round trip changed the message:\nsent %+v\ngot  %+v", m.T, *m, back)
		}
	}
}

// TestFrameRejectsMalformed pins the hostile-input rules on a valid
// wave frame changed in one place, and the encoder's refusal of a
// message type without a tag. The payload is 15 bytes: tag, V, ID,
// Shard, Job presence, Nodes count 1, the node's P, S count and Sleep,
// then WReports, Res presence, Ms, Replayed, Saved, Err.
func TestFrameRejectsMalformed(t *testing.T) {
	wave := frame(t, &fabric.Msg{T: fabric.MsgWave, Nodes: []fabric.WireNode{{}}})[4:]
	with := func(i int, b byte) []byte {
		p := append([]byte(nil), wave...)
		p[i] = b
		return rawFrame(p)
	}
	for name, fr := range map[string][]byte{
		"trailing byte":      rawFrame(append(append([]byte(nil), wave...), 0)),
		"truncated payload":  rawFrame(wave[:len(wave)-1]),
		"unknown tag":        with(0, byte(len(msgTypes))),
		"bool byte 2":        with(4, 2),
		"overflowing varint": rawFrame(append([]byte{wave[0]}, bytes.Repeat([]byte{0x80}, 10)...)),
	} {
		var m fabric.Msg
		if err := fabric.ReadFrame(bytes.NewReader(fr), &m); err == nil {
			t.Errorf("%s: decoded to %+v", name, m)
		}
	}
	var buf bytes.Buffer
	if err := fabric.WriteFrame(&buf, &fabric.Msg{T: "gossip"}); err == nil || buf.Len() != 0 {
		t.Errorf("unknown type encoded: err %v, %d bytes written", err, buf.Len())
	}
}

// allocBytes is the heap the call allocates. It reads runtime/metrics,
// which does not stop the world as runtime.ReadMemStats does.
func allocBytes(f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	f()
	metrics.Read(s)
	return s[0].Value.Uint64() - before
}

// TestReadFrameBoundsCounts splices a varint claiming 2^20 or 2^40
// elements over every byte of a fully populated frame, so each length
// prefix in turn claims far more elements than the frame can hold. The
// decoder must reject every such claim before allocating for it.
func TestReadFrameBoundsCounts(t *testing.T) {
	payload := frame(t, filledMsg(t, fabric.MsgWaved))[4:]
	for _, claim := range []uint64{1 << 20, 1 << 40} {
		for i := range payload {
			p := binary.AppendUvarint(append([]byte(nil), payload[:i]...), claim)
			fr := rawFrame(append(p, payload[i+1:]...))
			var m fabric.Msg
			if n := allocBytes(func() { _ = fabric.ReadFrame(bytes.NewReader(fr), &m) }); n > 1<<20 {
				t.Fatalf("claim %d at payload byte %d: decoding allocated %d bytes", claim, i, n)
			}
		}
	}
}

// TestReadFrameAllocatesWhatArrives declares the largest legal frame,
// sends a few payload bytes and ends the stream: ReadFrame must report
// the truncated frame having allocated no more than its first chunk, not
// the 8 MiB the header declared.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	in := binary.BigEndian.AppendUint32(nil, fabric.MaxFrame)
	in = append(in, 1, 2, 3, 4, 5, 6, 7, 8)
	var m fabric.Msg
	var err error
	n := allocBytes(func() { err = fabric.ReadFrame(bytes.NewReader(in), &m) })
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("got error %v, want a truncated-frame error", err)
	}
	if n >= 256<<10 {
		t.Fatalf("a stalled %d-byte frame header allocated %d bytes", fabric.MaxFrame, n)
	}
}

// FuzzReadFrame feeds ReadFrame arbitrary bytes. It must never panic,
// its allocations must stay proportional to the input (a count the
// frame cannot hold is rejected before anything is allocated for it),
// and any frame it accepts must re-encode to bytes that decode to the
// same Msg.
func FuzzReadFrame(f *testing.F) {
	for _, typ := range msgTypes {
		f.Add(frame(f, filledMsg(f, typ)))
	}
	f.Add(frame(f, &fabric.Msg{T: fabric.MsgHello, V: fabric.ProtoVersion}))
	// A protocol version 2 worker's hello: a JSON payload.
	f.Add(rawFrame([]byte(`{"t":"hello","v":2}`)))
	// Truncated frames: a short header, a short payload, and a header
	// that ends the payload early.
	waved := frame(f, filledMsg(f, fabric.MsgWaved))
	f.Add(waved[:3])
	f.Add(waved[:len(waved)/2])
	f.Add(rawFrame(waved[4 : len(waved)/2]))
	// A waved frame claiming 2^40 wave reports: tag 6, V, ID and Shard
	// zero, no job, no nodes, then the count.
	huge := binary.AppendUvarint([]byte{6, 0, 0, 0, 0, 0}, 1<<40)
	f.Add(rawFrame(append(huge, make([]byte, 64)...)))
	f.Add(v4Hello)
	f.Add(v5Hello)
	// A header declaring the largest legal frame, then a few bytes.
	f.Add(append(binary.BigEndian.AppendUint32(nil, fabric.MaxFrame), 1, 2, 3, 4))

	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadFrame's payload buffer starts at 64 KiB at most and
		// doubles only as bytes arrive, so it stays within a few times
		// the input, whatever length the header declares. Decoding then
		// allocates at most about 14 bytes (a 40-byte node decoded from
		// 3 payload bytes) per payload byte; 64 per input byte leaves
		// room for both and for size classes, and 1 MiB covers the first
		// chunk and the fuzzing engine's own allocations during the call.
		//
		// The runtime counts small allocations when a cached span is
		// handed back, so a GC cycle that starts during the call charges
		// it with everything the fuzzing engine allocated before it.
		// ReadFrame is deterministic, so a decoder that really exceeds
		// the limit exceeds it on every read: the least of three reads is
		// what is compared.
		limit := uint64(1<<20) + 64*uint64(len(data))
		var m fabric.Msg
		var err error
		n := allocBytes(func() { err = fabric.ReadFrame(bytes.NewReader(data), &m) })
		for try := 1; try < 3 && n > limit; try++ {
			n = min(n, allocBytes(func() { err = fabric.ReadFrame(bytes.NewReader(data), &m) }))
		}
		if n > limit {
			t.Fatalf("reading a %d-byte input allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		var back fabric.Msg
		if err := fabric.ReadFrame(bytes.NewReader(frame(t, &m)), &back); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("re-encoding changed the message:\nfirst  %+v\nsecond %+v", m, back)
		}
	})
}

// TestNodeDeltaRoundTrip pins the chunk delta encoding: decode(encode(x))
// is the identity on a chunk of wave tasks, and the encoding actually
// shrinks it — sibling schedules deep in the tree must ship as short
// tails.
func TestNodeDeltaRoundTrip(t *testing.T) {
	batch := []check.Node{
		{Schedule: []int{0, 1, 0, 1, 0, 1, 0, 0}, Sleep: 3},
		{Schedule: []int{0, 1, 0, 1, 0, 1, 0, 1}},
		{Schedule: []int{0, 1, 0, 1, 0, 1, 1}},
		{Schedule: []int{0, 1, 0, 1, 1}, Sleep: 1},
		{Schedule: []int{0, 1, 0, -2}},
		{Schedule: []int{1}},
	}
	wire := fabric.EncodeNodesForTest(batch)
	if wire[0].P != 0 {
		t.Fatalf("first node encoded with prefix %d, want 0", wire[0].P)
	}
	raw, enc := 0, 0
	for i := range batch {
		raw += len(batch[i].Schedule)
		enc += len(wire[i].S)
	}
	if enc >= raw {
		t.Errorf("delta encoding did not shrink the batch: %d entries raw, %d encoded", raw, enc)
	}
	back, err := fabric.DecodeNodesForTest(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back) != len(batch) {
		t.Fatalf("round trip changed batch size: %d -> %d", len(batch), len(back))
	}
	for i := range batch {
		a, b := batch[i], back[i]
		if a.Sleep != b.Sleep || len(a.Schedule) != len(b.Schedule) {
			t.Fatalf("node %d mangled: %+v -> %+v", i, a, b)
		}
		for j := range a.Schedule {
			if a.Schedule[j] != b.Schedule[j] {
				t.Fatalf("node %d schedule mangled: %v -> %v", i, a.Schedule, b.Schedule)
			}
		}
	}

	// Malformed prefixes are protocol errors, not silent truncations.
	if _, err := fabric.DecodeNodesForTest([]fabric.WireNode{{P: 2, S: []int{0}}}); err == nil {
		t.Errorf("first node with nonzero prefix decoded without error")
	}
	if _, err := fabric.DecodeNodesForTest([]fabric.WireNode{{S: []int{0}}, {P: 5}}); err == nil {
		t.Errorf("prefix past the first schedule decoded without error")
	}
}

// TestWaveShardingWorkerCounts is the distributed-DPOR determinism gate
// at the fabric level: the same DPOR portfolio, sharded over 1, 2 and 3
// workers, reports results byte-identical to one process — verdicts,
// witnesses and every counter. The engine argues this by induction over
// waves; this test is the argument's integration check.
func TestWaveShardingWorkerCounts(t *testing.T) {
	dpor := check.Options{MaxDepth: 60, MaxStates: 1 << 17, CollapseSpins: true, DPOR: true}
	dporSym := dpor
	dporSym.Symmetry = true
	jobs := []fabric.Job{
		{Name: "mutex/peterson-2p", N: 2, Opts: dpor},
		{Name: "naming/tas-scan", N: 2, Opts: dporSym},
		{Name: "broken/racy-mutex", N: 2, Opts: dpor},
	}
	want := singleProcess(t, jobs)
	for _, nWorkers := range []int{1, 2, 3} {
		results, stats := coordinate(t, jobs, nWorkers, fabric.CoordOptions{Shards: 2})
		if stats.WaveTasks == 0 {
			t.Errorf("workers=%d: no wave tasks distributed", nWorkers)
		}
		for i, r := range results {
			if r.Err != "" {
				t.Errorf("workers=%d %s: %s", nWorkers, r.Job.Name, r.Err)
				continue
			}
			if !r.Sharded {
				t.Errorf("workers=%d %s: DPOR job did not shard", nWorkers, r.Job.Name)
			}
			assertEqual(t, r.Job.Name, want[i], r.Res)
		}
	}
}
