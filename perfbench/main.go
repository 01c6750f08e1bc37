package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// order, with their units. Every result prints all of one list: a
// workload must measure every end-to-end metric and the per-layer
// metrics its workload entry names; a layer it bypasses reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"verdict_s", "s"}, {"runs_per_s", "1/s"}, {"query_s", "s"},
	{"peak_rss_mb", "MB"}, {"decided_share", "share"}, {"ok_share", "share"},
}

var perLayer = append([]metricDef{
	{"check.states", "count"}, {"check.runs", "count"},
	{"check.waves", "count"}, {"check.wave_tasks", "count"},
	{"check.stage_s", "s"}, {"check.commit_s", "s"}, {"check.dispatch_s", "s"},
	{"sim.events_replayed", "count"}, {"sim.events_saved", "count"}, {"sim.replay_s", "s"},
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
	{"metrics.property_evals", "count"}, {"metrics.property_s", "s"},
	{"metrics.sink_ns_per_event", "ns"},
	{"adversary.sched_ns_per_run", "ns"},
	{"fleet.runs", "count"},
	{"lode.digest_ns_per_event", "ns"}, {"lode.append_ns_per_record", "ns"},
	{"lode.records", "count"}, {"lode.bytes", "bytes"}, {"lode.scan_records_per_s", "1/s"},
	{"fabric.frames", "count"}, {"fabric.bytes_to_workers", "bytes"}, {"fabric.bytes_from_workers", "bytes"},
	{"fabric.worker_wait_s", "s"}, {"fabric.codec_s", "s"},
	{"fabric.wave_job_s", "s"}, {"fabric.frontier_job_s", "s"},
	{"fabric.wave_tasks", "count"}, {"fabric.probes", "count"},
	{"fabric.events_replayed", "count"}, {"fabric.events_saved", "count"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"},
	{"host.calib_s", "s"}, {"host.calib_mem_s", "s"},
	{"trace.overhead_s", "s"}, {"trace.overhead_share", "share"}, {"trace.spans", "count"},
}, spanMetrics()...)

func spanMetrics() []metricDef {
	out := make([]metricDef, len(spanKinds))
	for i, k := range spanKinds {
		out[i] = metricDef{"span." + k + ".self_s", "s"}
	}
	return out
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation: which workload, how it is seeded and how
// long it measures.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	// state is the directory the benchmark writes scratch datasets, span
	// dumps and exact-counter records into (the build directory).
	state string
}

// passes is how many measured passes a run makes: --seconds over the
// workload's pass length on a 2-CPU host, at least two. It is a
// function of the arguments alone, so every run of a workload measures
// the same number of passes.
func (c config) passes(passSeconds float64) int {
	return max(2, int(float64(c.seconds)/passSeconds))
}

// shuffle permutes a workload's job list by the seed: the inputs a run
// sees, and the order it sees them in, are a function of --seed alone,
// while the work done (and every exact counter) is the same for every
// seed.
func shuffle[T any](seed int64, s []T) {
	rand.New(rand.NewSource(seed)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// run accumulates one workload run's outcome.
type run struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	// exact holds the counters that must repeat exactly in every pass
	// and every run of the workload (see exactGate).
	exact map[string]int64
}

func newRun() *run {
	return &run{values: make(map[string]float64), exact: make(map[string]int64)}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op counts one operation and whether its output was right.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// pin records an exact counter for this pass; a later pass of the same
// run that disagrees fails the run.
func (r *run) pin(name string, v int64) {
	if old, ok := r.exact[name]; ok && old != v {
		r.fail("%s differs between passes: %d then %d", name, old, v)
		return
	}
	r.exact[name] = v
}

// workload is one named workload: how it runs, and the per-layer
// metrics its traced mode must set besides traceCommon. A traced run
// that misses one fails; a per-layer metric in neither list belongs to
// a layer the workload bypasses and prints as 0.
type workload struct {
	run    func(config, *run) error
	layers []string
}

// traceCommon is what every traced run measures.
var traceCommon = []string{"runtime.alloc_mb", "runtime.gc_cycles", "host.calib_s", "host.calib_mem_s",
	"trace.overhead_s", "trace.overhead_share", "trace.spans", "span.workload.self_s"}

var workloads = map[string]workload{
	"check-dpor": {runCheckDPOR, []string{"check.states", "check.runs", "check.waves", "check.wave_tasks",
		"check.stage_s", "check.commit_s", "check.dispatch_s",
		"sim.events_replayed", "sim.events_saved", "sim.replay_s",
		"metrics.property_evals", "metrics.property_s",
		"span.job.self_s", "span.wave.self_s", "span.stage.self_s", "span.commit.self_s", "span.replay.self_s"}},
	"check-ref": {runCheckRef, []string{"check.states", "check.runs",
		"metrics.property_evals", "metrics.property_s", "span.job.self_s"}},
	"fleet": {runFleet, []string{"fleet.runs", "sim.events", "sim.ns_per_event",
		"metrics.sink_ns_per_event", "adversary.sched_ns_per_run",
		"lode.digest_ns_per_event", "lode.append_ns_per_record", "lode.records", "lode.bytes",
		"lode.scan_records_per_s", "span.job.self_s", "span.sample.self_s", "span.query.self_s"}},
	"fabric": {runFabric, []string{"check.states", "check.runs",
		"metrics.property_evals", "metrics.property_s",
		"fabric.frames", "fabric.bytes_to_workers", "fabric.bytes_from_workers",
		"fabric.worker_wait_s", "fabric.codec_s", "fabric.wave_job_s", "fabric.frontier_job_s",
		"fabric.wave_tasks", "fabric.probes", "fabric.events_replayed", "fabric.events_saved",
		"span.frame.self_s"}},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: check-dpor, check-ref, fleet or fabric")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "how long the measured passes run, in seconds")
	trace := flag.Int("trace", 0, "1 reruns the workload traced and prints the per-layer metrics")
	calib := flag.Bool("calib", false, "time the host-speed kernels, print their seconds and exit")
	flag.Parse()
	if *calib {
		alu, mem := calibKernels()
		fmt.Println(alu, mem)
		return 0
	}
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: perfbench --workload check-dpor|check-ref|fleet|fabric --seed N --seconds S --trace 0|1\n")
		return 2
	}
	cfg.traced = *trace == 1
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.state = filepath.Dir(exe)

	aluStart, memStart, err := calibrate(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r := newRun()
	if err := wl.run(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	aluEnd, memEnd, err := calibrate(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r.set("host.calib_s", (aluStart+aluEnd)/2)
	r.set("host.calib_mem_s", (memStart+memEnd)/2)
	r.set("ok_share", float64(r.attempted-r.failed)/float64(r.attempted))
	if err := exactGate(cfg, exe, r.exact); err != nil {
		r.fail("%v", err)
	}

	defs, required := endToEnd, make(map[string]bool)
	if cfg.traced {
		defs = perLayer
		for _, name := range append(traceCommon, wl.layers...) {
			required[name] = true
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: peak RSS: %v\n", err)
			return 1
		}
		r.set("peak_rss_mb", rss)
		for _, d := range endToEnd {
			required[d.name] = true
		}
	}
	for name := range required {
		if _, ok := r.values[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, name)
			return 1
		}
	}
	res := result{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	for _, p := range r.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	diag := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "gomaxprocs": runtime.GOMAXPROCS(0),
		"host.calib_s": []float64{aluStart, aluEnd}, "host.calib_mem_s": []float64{memStart, memEnd},
		"exact": r.exact}
	line, _ := json.Marshal(diag) // strings, numbers and a map of them: cannot fail
	fmt.Printf("diag %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// calibrate runs the host-speed kernels in a child process, so that
// their buffer never counts toward this process's peak RSS, and returns
// their times. Printed at the start and end of every run, they tell a
// reader whether the host itself was slower, which no change to the
// program can cause.
func calibrate(exe string) (alu, mem float64, err error) {
	out, err := exec.Command(exe, "-calib").Output()
	if err != nil {
		return 0, 0, fmt.Errorf("host-speed probe: %w", err)
	}
	if _, err := fmt.Sscan(string(out), &alu, &mem); err != nil {
		return 0, 0, fmt.Errorf("host-speed probe: reading %q: %w", out, err)
	}
	return alu, mem, nil
}

// calibSink keeps the compiler from discarding the probe kernels.
var calibSink uint64

// calibKernels times two fixed kernels that use no repository code: an
// integer kernel (host.calib_s), which a slower core shows, and a chain
// of dependent loads through a 16 MiB buffer (host.calib_mem_s), which
// misses a core's private caches and so also shows contention for the
// shared cache and memory, where the check and fleet workloads spend
// much of their time.
func calibKernels() (alu, mem float64) {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x >> 11
	}
	alu = time.Since(t0).Seconds()

	// Sattolo's shuffle makes next one cycle through every slot, so the
	// chase never settles into a short, cached loop.
	next := make([]uint32, 4<<20)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	t0 = time.Now()
	p := uint32(0)
	for i := 0; i < 4_000_000; i++ {
		p = next[p]
	}
	mem = time.Since(t0).Seconds()
	calibSink += acc + uint64(p)
	return alu, mem
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // kilobytes on Linux
}

// memDelta measures what a pass allocated and how many collections the
// runtime started by itself (collections the benchmark forces between
// jobs are not counted).
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) report(r *run) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("runtime.alloc_mb", float64(after.TotalAlloc-m.before.TotalAlloc)/(1<<20))
	r.set("runtime.gc_cycles", float64((after.NumGC-m.before.NumGC)-(after.NumForcedGC-m.before.NumForcedGC)))
}

// median of a non-empty sample; the mean of the middle two for an even
// count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// jobTimes holds one duration per (pass, job), in seconds.
type jobTimes [][]float64

// perJob is each job's median time over the passes.
func (t jobTimes) perJob() []float64 {
	out := make([]float64, len(t[0]))
	col := make([]float64, len(t))
	for j := range out {
		for p := range t {
			col[p] = t[p][j]
		}
		out[j] = median(col)
	}
	return out
}

// verdict is the time from set-up to the last job's result of one pass,
// estimated as the sum of each job's median: a pass that one job spent
// stalled behind another process on the host costs that job's sample,
// not the run's figure.
func (t jobTimes) verdict() float64 {
	s := 0.0
	for _, v := range t.perJob() {
		s += v
	}
	return s
}

// query is the latency of a typical one-entry query (cfccheck -only
// NAME): the geometric mean of the jobs' median times, which span
// microseconds to seconds.
func (t jobTimes) query() float64 {
	logs := 0.0
	jobs := t.perJob()
	for _, v := range jobs {
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(jobs)))
}

// exactGate fails the run unless its exact counters equal those of
// every earlier run of the same workload and mode made by the same
// benchmark binary in this build directory. The first run records
// them; the record is keyed by a hash of the binary, so rebuilding
// after a change to the program starts a fresh record.
func exactGate(cfg config, exe string, counters map[string]int64) error {
	sum, err := fileHash(exe)
	if err != nil {
		return fmt.Errorf("exact gate: %w", err)
	}
	mode := "plain"
	if cfg.traced {
		mode = "traced"
	}
	path := filepath.Join(cfg.state, "exact", fmt.Sprintf("%s-%s-%s.json", sum, cfg.workload, mode))
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return writeAtomic(path, counters)
	}
	if err != nil {
		return fmt.Errorf("exact gate: %w", err)
	}
	var want map[string]int64
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("exact gate: %s: %w", path, err)
	}
	var diffs []string
	for k, v := range want {
		if got, ok := counters[k]; !ok || got != v {
			diffs = append(diffs, fmt.Sprintf("%s=%d (earlier runs: %d)", k, got, v))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		return fmt.Errorf("exact counters changed between runs: %s", strings.Join(diffs, ", "))
	}
	return nil
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func writeAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// finishTrace writes the spans out and reports the self time of each
// span kind the run opened.
func finishTrace(cfg config, tr *tracer, r *run) error {
	for kind, s := range tr.selfByKind() {
		r.set("span."+spanKinds[kind]+".self_s", s)
	}
	r.set("trace.spans", float64(len(tr.spans)))
	return tr.write(filepath.Join(cfg.state, "spans", cfg.workload+".tsv"))
}

// overhead reports the traced pass's cost over the untraced one.
func overhead(r *run, untraced, traced float64) {
	r.set("trace.overhead_s", traced-untraced)
	r.set("trace.overhead_share", traced/untraced-1)
}
