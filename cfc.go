// Package cfc is an executable reproduction of Alur & Taubenfeld,
// "Contention-Free Complexity of Shared Memory Algorithms" (PODC 1994;
// Information and Computation 126:62-73, 1996).
//
// The package exposes, under one import, the repository's building
// blocks:
//
//   - a deterministic shared-memory simulator in the paper's interleaving
//     model (registers of any atomicity, the eight single-bit
//     read-modify-write operations, pluggable adversarial schedulers,
//     full traces — or zero-allocation streaming through event Sinks
//     with online estimators and safety monitors);
//   - the step/register x worst-case/contention-free complexity measures,
//     computed from traces exactly as Sections 2.2 and 3.2 define them;
//   - the paper's algorithms: Lamport's fast mutual exclusion, the
//     Theorem 3 tournament for any atomicity l, Peterson/Kessels bit
//     tournaments, splitter-based contention detection, and the four
//     naming algorithms of Theorem 4;
//   - the closed-form bounds of Theorems 1-7 as checkable functions;
//   - executable adversaries for the lower-bound constructions and an
//     exhaustive model checker for small configurations, deterministic
//     at any CheckOptions.Workers (the goroutines of the DPOR engine's
//     stage pass; the other engines explore on the caller's goroutine).
//
// # Quick start
//
// Measure the contention-free complexity of Lamport's fast algorithm for
// 64 processes:
//
//	rep, err := cfc.MeasureMutex(cfc.LamportFast(), 64, cfc.MutexOptions{})
//	if err != nil { ... }
//	fmt.Println(rep.CF.Steps, rep.CF.Registers) // 7 3
//
// Build a custom protocol against the simulator directly:
//
//	mem := cfc.NewMemory(cfc.AtomicRegisters)
//	x := mem.Register("x", 8)
//	res, err := cfc.Run(cfc.Config{
//	    Mem:   mem,
//	    Procs: []cfc.ProcFunc{func(p *cfc.Proc) { p.Write(x, 1) }},
//	})
//
// The examples directory exercises the full API; cmd/cfcbench regenerates
// the paper's tables.
package cfc

import (
	"cfc/internal/adversary"
	"cfc/internal/bounds"
	"cfc/internal/check"
	"cfc/internal/contention"
	"cfc/internal/core"
	"cfc/internal/driver"
	"cfc/internal/experiments"
	"cfc/internal/metrics"
	"cfc/internal/mutex"
	"cfc/internal/naming"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// Simulator types (package sim).
type (
	// Memory is a collection of shared registers governed by an operation
	// model.
	Memory = sim.Memory
	// Reg is a handle to a shared register or a packed-word field view.
	Reg = sim.Reg
	// Proc is the handle through which a process body accesses shared
	// memory; each access is one scheduled atomic event.
	Proc = sim.Proc
	// ProcFunc is a process body.
	ProcFunc = sim.ProcFunc
	// Config describes one run; Result is its outcome; Trace the event
	// record.
	Config = sim.Config
	Result = sim.Result
	Trace  = sim.Trace
	Event  = sim.Event
	// Scheduler picks the interleaving; Decision is one choice.
	Scheduler = sim.Scheduler
	Decision  = sim.Decision
	// Engine selects the execution engine (EngineAuto picks the direct
	// engine for deterministic schedulers); Arena recycles run state
	// across runs; Session is an incrementally driven run.
	Engine  = sim.Engine
	Arena   = sim.Arena
	Session = sim.Session
	// Schedulers.
	Solo       = sim.Solo
	Sequential = sim.Sequential
	RoundRobin = sim.RoundRobin
	Scripted   = sim.Scripted
	Crasher    = sim.Crasher
	// CrashWindow is one crash/recovery cycle of Crasher.Windows.
	CrashWindow = sim.CrashWindow
	Phase       = sim.Phase
	// Sink receives a run's events as they happen (see the sim.Sink
	// contract); RunInfo describes the run to Sink.Begin; StopReason
	// says why a run ended. TraceSink buffers the default Trace,
	// StreamSink adapts closures, FanoutSink composes sinks and
	// DiscardSink drops everything (engine benchmarking).
	Sink        = sim.Sink
	RunInfo     = sim.RunInfo
	StopReason  = sim.StopReason
	TraceSink   = sim.TraceSink
	StreamSink  = sim.StreamSink
	FanoutSink  = sim.FanoutSink
	DiscardSink = sim.DiscardSink
)

// Scheduler and phase constants re-exported from package sim.
const (
	PhaseRemainder = sim.PhaseRemainder
	PhaseTry       = sim.PhaseTry
	PhaseCS        = sim.PhaseCS
	PhaseExit      = sim.PhaseExit
	PhaseDone      = sim.PhaseDone
)

// Execution engines re-exported from package sim; see the sim package
// comment for how each engine drives process bodies.
const (
	EngineAuto      = sim.EngineAuto
	EngineDirect    = sim.EngineDirect
	EngineGoroutine = sim.EngineGoroutine
)

// NewMemory returns an empty memory supporting exactly the operations in
// model.
func NewMemory(model Model) *Memory { return sim.NewMemory(model) }

// Run executes one run under cfg; see sim.Run.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// NewArena returns reusable run state for Config.Reuse; see sim.Arena.
func NewArena() *Arena { return sim.NewArena() }

// StartSession begins an incrementally driven run; see sim.StartSession.
func StartSession(cfg Config) (*Session, error) { return sim.StartSession(cfg) }

// NewRandom returns a seeded random scheduler.
func NewRandom(seed int64) Scheduler { return sim.NewRandom(seed) }

// Operation model types (package opset).
type (
	// Op is one atomic operation; Model a set of operations.
	Op    = opset.Op
	Model = opset.Model
	// Acc is one pending access's footprint for the independence oracle.
	Acc = opset.Acc
	// PendingOp is a ready process's next request, observable through
	// Session.PendingOps before it commits — what the model checker's
	// partial-order reduction judges independence over.
	PendingOp = sim.PendingOp
)

// Independent reports whether two accesses commute — both orders yield
// identical memory and identical returns; see opset.Independent.
func Independent(a, b Acc) bool { return opset.Independent(a, b) }

// The eight single-bit operations of Section 3.1 plus the multi-bit
// register operations.
const (
	OpSkip         = opset.Skip
	OpRead         = opset.Read
	OpWrite0       = opset.Write0
	OpTestAndReset = opset.TestAndReset
	OpWrite1       = opset.Write1
	OpTestAndSet   = opset.TestAndSet
	OpFlip         = opset.Flip
	OpTestAndFlip  = opset.TestAndFlip
	OpReadWord     = opset.ReadWord
	OpWriteWord    = opset.WriteWord
)

// Named models from the paper.
var (
	AtomicRegisters = opset.AtomicRegisters
	TASOnly         = opset.TASOnly
	ReadTAS         = opset.ReadTAS
	ReadTASTAR      = opset.ReadTASTAR
	TAFOnly         = opset.TAFOnly
	RMW             = opset.RMW
	ReadWrite       = opset.ReadWrite
)

// ModelOf constructs the model containing exactly the given operations.
func ModelOf(ops ...Op) Model { return opset.ModelOf(ops...) }

// AllBitModels enumerates all 256 models over the eight bit operations.
func AllBitModels() []Model { return opset.AllBitModels() }

// Complexity measurement types (packages metrics and core).
type (
	// Measure is step/register complexity of one fragment, with
	// read/write refinements.
	Measure = metrics.Measure
	// Attempt is one mutual-exclusion attempt; Task one one-shot task
	// execution.
	Attempt = metrics.Attempt
	Task    = metrics.Task
	// Report is the measured complexity profile of an algorithm.
	Report = core.Report
	// MutexOptions and TaskOptions configure the measurement engines.
	MutexOptions = core.MutexOptions
	TaskOptions  = core.TaskOptions
)

// Online (streaming) observation sinks from package metrics: computed
// per event, so runs need not be buffered as traces at all.
type (
	// RunObserver accumulates the per-attempt estimators (steps,
	// bit-steps, histogram percentiles, contention, fast-path) online.
	RunObserver = metrics.RunObserver
	// SafetyMonitor checks the Spec-selected safety properties online,
	// with verdicts identical to the trace-based Check* functions.
	SafetyMonitor = metrics.SafetyMonitor
	// SafetySpec selects the properties a SafetyMonitor checks.
	SafetySpec = metrics.SafetySpec
)

// SafetyMonitor property selectors.
const (
	SafetyMutex         = metrics.SafetyMutex
	SafetyUniqueOutputs = metrics.SafetyUniqueOutputs
	SafetyDetection     = metrics.SafetyDetection
)

// MutexAttempts extracts the mutual-exclusion attempts from a trace.
func MutexAttempts(t *Trace) []Attempt { return metrics.MutexAttempts(t) }

// Tasks extracts the one-shot task executions from a trace.
func Tasks(t *Trace) []Task { return metrics.Tasks(t) }

// CheckMutualExclusion, CheckUniqueOutputs and CheckDetection are the
// safety properties of the paper's three problems.
func CheckMutualExclusion(t *Trace) error { return metrics.CheckMutualExclusion(t) }

// CheckUniqueOutputs verifies that all produced outputs are distinct.
func CheckUniqueOutputs(t *Trace) error { return metrics.CheckUniqueOutputs(t) }

// CheckDetection verifies the contention-detection safety property.
func CheckDetection(t *Trace, requireWinner bool) error {
	return metrics.CheckDetection(t, requireWinner)
}

// Mutual-exclusion algorithms (package mutex).
type (
	// MutexAlgorithm is a mutual-exclusion algorithm family;
	// MutexInstance one set-up instance.
	MutexAlgorithm = mutex.Algorithm
	MutexInstance  = mutex.Instance
	// NodeKind selects the l = 1 tournament node; BackoffPolicy the
	// Section 4 delay policy.
	NodeKind      = mutex.NodeKind
	BackoffPolicy = mutex.BackoffPolicy
)

// Tournament node kinds and backoff policies.
const (
	NodePeterson       = mutex.NodePeterson
	NodeKessels        = mutex.NodeKessels
	BackoffNone        = mutex.BackoffNone
	BackoffLinear      = mutex.BackoffLinear
	BackoffExponential = mutex.BackoffExponential
)

// LamportFast returns Lamport's fast mutual exclusion algorithm [Lam87]:
// contention-free complexity 7 steps on 3 registers at atomicity log n.
func LamportFast() MutexAlgorithm { return mutex.Lamport{} }

// PackedLamport returns the multi-grain variant after [MS93]: 7 steps on
// 2 registers at doubled atomicity.
func PackedLamport() MutexAlgorithm { return mutex.PackedLamport{} }

// TournamentMutex returns the Theorem 3 construction at atomicity l with
// the default (Peterson) l = 1 node.
func TournamentMutex(l int) MutexAlgorithm { return mutex.Tournament{L: l} }

// TournamentMutexWithNode returns the Theorem 3 construction with an
// explicit l = 1 node kind (ablation 2 of DESIGN.md).
func TournamentMutexWithNode(l int, node NodeKind) MutexAlgorithm {
	return mutex.Tournament{L: l, Node: node}
}

// Peterson2P returns Peterson's two-process algorithm.
func Peterson2P() MutexAlgorithm { return mutex.Peterson{} }

// Kessels2P returns Kessels's single-writer two-process algorithm
// [Kes82].
func Kessels2P() MutexAlgorithm { return mutex.Kessels{} }

// TASLock and TTASLock return the read-modify-write spin-lock baselines.
func TASLock() MutexAlgorithm  { return mutex.TASLock{} }
func TTASLock() MutexAlgorithm { return mutex.TTASLock{} }

// TTASWithBackoff returns a test-and-test-and-set lock with the Section 4
// backoff policy.
func TTASWithBackoff(policy BackoffPolicy) MutexAlgorithm {
	return mutex.BackoffTTAS{Policy: policy}
}

// LamportWithBackoff returns Lamport's fast algorithm with backoff at its
// contention-detection points.
func LamportWithBackoff(policy BackoffPolicy) MutexAlgorithm {
	return mutex.BackoffLamport{Policy: policy}
}

// MeasureMutex measures a mutual-exclusion algorithm: exact
// contention-free complexity plus the empirical worst case over a
// schedule portfolio.
func MeasureMutex(alg MutexAlgorithm, n int, opts MutexOptions) (Report, error) {
	return core.MeasureMutex(alg, n, opts)
}

// VerifyMutexBounds cross-checks a report against Theorems 1 and 2.
func VerifyMutexBounds(rep Report) error { return core.VerifyMutexBounds(rep) }

// Contention detection (package contention).
type (
	// Detector is a contention-detection algorithm family;
	// DetectorInstance one set-up instance.
	Detector         = contention.Detector
	DetectorInstance = contention.Instance
)

// SplitterDetector returns the 4-step, 2-register wait-free detector at
// atomicity log n.
func SplitterDetector() Detector { return contention.Splitter{} }

// SplitterTreeDetector returns the atomicity-l detector: a 2^l-ary tree
// of splitters, 4*ceil(log n/l) worst-case steps (Section 2.6).
func SplitterTreeDetector(l int) Detector { return contention.ChunkedSplitter{L: l} }

// DetectorFromMutex returns the Lemma 1 reduction from a mutual-exclusion
// algorithm.
func DetectorFromMutex(alg MutexAlgorithm) Detector { return contention.FromMutex{Alg: alg} }

// Naming (package naming).
type (
	// NamingAlgorithm is a naming-algorithm family; NamingInstance one
	// set-up instance.
	NamingAlgorithm = naming.Algorithm
	NamingInstance  = naming.Instance
)

// TAFTreeNaming returns the Theorem 4(1) test-and-flip tree (all four
// measures log n).
func TAFTreeNaming() NamingAlgorithm { return naming.TAFTree{} }

// TASTARTreeNaming returns the Theorem 4(2) alternation tree (worst-case
// register complexity log n).
func TASTARTreeNaming() NamingAlgorithm { return naming.TASTARTree{} }

// TASScanNaming returns the Theorem 4(3) linear scan (all four measures
// n-1).
func TASScanNaming() NamingAlgorithm { return naming.TASScan{} }

// TASBinSearchNaming returns the Theorem 4(4) binary search + scan
// (contention-free step complexity log n).
func TASBinSearchNaming() NamingAlgorithm { return naming.TASBinSearch{} }

// RandomizedNaming returns the probabilistic naming extension for the
// {read, write} model, in which deterministic naming is impossible
// (Section 3.1; after the [LP90] pointer). Names are unique up to 63-bit
// token collisions; termination is probabilistic. See naming.Randomized.
func RandomizedNaming(seed int64) NamingAlgorithm { return naming.Randomized{Seed: seed} }

// MeasureDetector and MeasureNaming run the one-shot measurement engine.
func MeasureDetector(det Detector, n int, opts TaskOptions) (Report, error) {
	return core.MeasureTask(core.DetectorTask(det, n), opts)
}

// MeasureNaming measures a naming algorithm at n processes.
func MeasureNaming(alg NamingAlgorithm, n int, opts TaskOptions) (Report, error) {
	return core.MeasureTask(core.NamingTask(alg, n), opts)
}

// Closed-form bounds (package bounds).
var (
	// MutexCFStepLower and MutexCFRegLower are the Theorem 1 and 2
	// thresholds; MutexCFStepUpper/MutexCFRegUpper the Theorem 3 closed
	// forms.
	MutexCFStepLower = bounds.MutexCFStepLower
	MutexCFRegLower  = bounds.MutexCFRegLower
	MutexCFStepUpper = bounds.MutexCFStepUpper
	MutexCFRegUpper  = bounds.MutexCFRegUpper
	// Lemma3Holds and Lemma6Holds are the combinatorial necessary
	// conditions on contention detectors.
	Lemma3Holds = bounds.Lemma3Holds
	Lemma6Holds = bounds.Lemma6Holds
	// NamingTable returns the Section 3.3 tight-bounds table.
	NamingTable = bounds.NamingTable
)

// Model checking (package check).
type (
	// CheckOptions configures exhaustive exploration; CheckResult reports
	// it; Builder constructs a fresh program per replay.
	CheckOptions = check.Options
	CheckResult  = check.Result
	Builder      = check.Builder
	Violation    = check.Violation
)

// Explore exhaustively explores the interleavings of a small program; see
// check.Explore. CheckOptions.Workers sets the goroutines of the DPOR
// engine's stage pass, and every other engine explores on the calling
// goroutine. To use several cores on those, call Explore for several
// programs at once.
func Explore(build Builder, prop func(*Trace) error, opts CheckOptions) (CheckResult, error) {
	return check.Explore(build, prop, opts)
}

// Adversaries (package adversary).
var (
	// CheckLemma2 verifies the Lemma 2 condition on a detector's solo
	// runs; CloneWorstSteps runs the Theorem 6 clone schedule;
	// SequentialWorstRegisters the Theorem 5/7 sequential run;
	// StarveVictim the [AT92] unbounded-worst-case demonstration.
	CheckLemma2              = adversary.CheckLemma2
	CloneWorstSteps          = adversary.CloneWorstSteps
	SequentialWorstRegisters = adversary.SequentialWorstRegisters
	StarveVictim             = adversary.StarveVictim
)

// Drivers (package driver).
var (
	// MutexBody wraps a lock into a marked process body; TaskBody wraps a
	// one-shot task.
	MutexBody = driver.MutexBody
	TaskBody  = driver.TaskBody
	// SoloMutexRun, ContentionFreeMutex, ContendedMutexRun, TaskRun and
	// SoloTaskRun are the standard run shapes.
	SoloMutexRun        = driver.SoloMutexRun
	ContentionFreeMutex = driver.ContentionFreeMutex
	ContendedMutexRun   = driver.ContendedMutexRun
	TaskRun             = driver.TaskRun
	SoloTaskRun         = driver.SoloTaskRun
	// RunInto executes a run streaming its events into a Sink, for
	// sweeps that observe runs online instead of retaining traces.
	RunInto = driver.RunInto
)

// Experiments (package experiments).
type (
	// ExperimentTable is a formatted experiment result.
	ExperimentTable = experiments.Table
)

// Experiment entry points regenerating the paper's artifacts.
var (
	TableM          = experiments.TableM
	TableN          = experiments.TableN
	AtomicitySweep  = experiments.AtomicitySweep
	MultiGrainSweep = experiments.MultiGrain
	BackoffSweep    = experiments.Backoff
	DetectionSweep  = experiments.DetectionSweep
	StarvationSweep = experiments.Starvation
	NodeAblation    = experiments.NodeAblation
	AllExperiments  = experiments.All
)
