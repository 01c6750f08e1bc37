package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span kinds. The self-time metrics (span.<kind>.self_s) come in this
// order.
var spanKinds = []string{"workload", "job", "wave", "stage", "commit", "replay", "sample", "query", "frame"}

const (
	kWorkload = iota
	kJob
	kWave
	kStage
	kCommit
	kReplay
	kSample
	kQuery
	kFrame
)

// span is one recorded call into a layer: [start, end) in nanoseconds
// since the tracer started, and the span that was open around it.
type span struct {
	parent     int32 // -1 for a root
	kind       uint8
	name       int32 // index into tracer.names, -1 for none
	start, end int64
}

// tracer keeps every span of a traced run in memory and writes them out
// when the run ends. Spans are opened and closed by the benchmark around
// its own calls into the program, never inside it. Its methods are safe
// for concurrent use: fabric frames are recorded from connection
// goroutines while the main goroutine holds the workload span open.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	names []string
	ids   map[string]int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: make(map[string]int32)}
}

// begin opens a span and returns its id; end closes it. A nil tracer
// records nothing, so untraced code paths call it unconditionally.
func (t *tracer) begin(parent int32, kind uint8, name string) int32 {
	return t.beginAt(parent, kind, name, time.Now())
}

func (t *tracer) end(id int32) { t.endAt(id, time.Now()) }

func (t *tracer) beginAt(parent int32, kind uint8, name string, at time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(span{parent: parent, kind: kind, name: t.nameID(name), start: int64(at.Sub(t.t0))})
}

func (t *tracer) endAt(id int32, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// record adds a span whose bounds the caller measured itself (for
// example around a Write on a fabric connection).
func (t *tracer) record(parent int32, kind uint8, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(span{parent: parent, kind: kind, name: t.nameID(name),
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))})
}

func (t *tracer) add(s span) int32 {
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) nameID(name string) int32 {
	if name == "" {
		return -1
	}
	id, ok := t.ids[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children's spans cover (children recorded from several
// goroutines may overlap, so the covered part is the union).
func (t *tracer) selfTimes() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(t.spans[k].start, reach), min(t.spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfByKind sums self time per span kind, in seconds, over the kinds
// the run opened.
func (t *tracer) selfByKind() map[uint8]float64 {
	self := t.selfTimes()
	out := make(map[uint8]float64)
	for i, s := range t.spans {
		out[s.kind] += float64(self[i]) / 1e9
	}
	return out
}

// write dumps the spans as tab-separated lines: id, parent, kind, name,
// start and end in nanoseconds since the run's tracer started, and self
// time.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\tkind\tname\tstart_ns\tend_ns\tself_ns")
	for i, s := range t.spans {
		name := ""
		if s.name >= 0 {
			name = t.names[s.name]
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n", i, s.parent, spanKinds[s.kind], name, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
