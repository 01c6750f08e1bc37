package check

import (
	"errors"
	"fmt"

	"cfc/internal/sim"
)

// This file is the checker's half of the distributed check fabric
// (internal/fabric): the exported seam along the wave-BSP split dpor.go
// already makes in-process. A wave's stage pass is a pure function of its
// task list (see the determinism argument in dpor.go), so it can run
// anywhere — the WaveProber is that pass behind a wire-shaped interface,
// and the WaveMaster is everything else: the node tree, the visited set
// and the serial commit pass, which never replays anything and so needs
// no program instance beyond the one build used to size the engine.
//
// The master hands out the WHOLE current wave, the coordinator chunks it
// over workers however it likes, and Commit requires exactly one report
// per task in task order — a barrier per tree level. Any chunking, any
// worker count and any report arrival order produce byte-identical
// results, because Commit is the same serial code the in-process engine
// runs and the reports it consumes are pure. Explorations with the other
// engines do not split: the fabric ships them whole to one worker, which
// runs Explore.

// Node is one wave task in wire shape: the decision schedule reaching it
// (Session.Decisions encoding — entry pid steps that process, entry
// -pid-1 crashes it) plus the sleep mask it inherited. Nodes travel
// between processes; all fields are plain wire data.
type Node struct {
	Schedule []int
	Sleep    uint64
}

// ProbeStats counts a wave prober's work in schedule decisions. A prober
// that replayed every task from the root would have executed
// Replayed+Saved decisions, the tasks' total schedule length; the ratio
// of that sum to Replayed is what the live session saved.
type ProbeStats struct {
	// Probes is the number of wave tasks expanded.
	Probes int64
	// Replayed is the number of decisions actually executed to position
	// the live session (sim.Session.Executed): decisions performed, plus
	// decisions a rewind re-fed to the processes that moved.
	Replayed int64
	// Saved is the rest of the tasks' schedules: decisions the live
	// session already held, in the prefix it extended or in the
	// processes a rewind left parked.
	Saved int64
}

// account charges one task of an n-decision schedule that cost the
// session executed decisions.
func (s *ProbeStats) account(executed, n int) {
	s.Replayed += int64(executed)
	s.Saved += int64(n - executed)
}

// ReplaysToViolation replays a witness schedule (Decisions encoding:
// entry pid steps pid, entry -pid-1 crashes it) through a session on a
// fresh program instance and reports whether it reproduces a violation:
// either the property rejects the trace, or — mirroring the explorers'
// leaf check under Options.ExpectTermination — the replayed run is
// maximal with a started process that neither terminated nor crashed.
// It is the independent re-verification step distributed coordinators
// (and cfccheck -pordiff) run on every witness that arrives over a wire
// before trusting it.
func ReplaysToViolation(build Builder, prop Property, opts Options, schedule []int) (bool, error) {
	mem, procs, err := build()
	if err != nil {
		return false, err
	}
	sess, err := sim.StartSession(sim.Config{Mem: mem, Procs: procs, MaxSteps: len(schedule) + 1})
	if err != nil {
		return false, err
	}
	defer sess.Close()
	if err := sess.Seek(schedule); err != nil {
		return false, fmt.Errorf("witness schedule does not replay: %w", err)
	}
	tr := sess.Trace()
	if prop(tr) != nil {
		return true, nil
	}
	if opts.ExpectTermination && sess.Finished() {
		if _, ok := unterminated(tr); ok {
			return true, nil
		}
	}
	return false, nil
}

// DepthMask is one backtrack registration in wire shape: the
// race-initials mask to register at the path ancestor at the given
// depth (the node BEFORE the path's depth-th decision executes).
type DepthMask struct {
	Depth int
	Mask  uint64
}

// WaveReport is the stage pass's result for one wave task, in wire
// shape: everything the serial commit pass needs to know about the
// node. It is a pure function of the task's Node under the exploration
// options, which is what makes requeueing and re-probing sound.
type WaveReport struct {
	// HasViol + Viol carry the property (or termination) violation at
	// this node; the schedule is the task's own, so only the message
	// travels.
	HasViol bool
	Viol    string
	// Leaf marks a node with no expansion: a maximal run or the depth
	// budget. Run counts a completed run; Trunc a depth truncation.
	Leaf  bool
	Run   bool
	Trunc bool
	// Key is the canonical visited key (symmetry applied when on).
	Key uint64
	// First is the first-batch pid mask (0: straight to the join).
	First uint64
	// Live and Sleep are the node's enabled-pid mask and normalised
	// sleep mask; Pend its pending steps — the expansion state the
	// master installs if the node wins its visited arbitration.
	Live  uint64
	Sleep uint64
	Pend  []sim.PendingOp
	// Masks are the arriving step's race-initials registrations,
	// applied unconditionally; Comp the compensation ghosts, applied
	// only if the node is pruned as a revisit.
	Masks []DepthMask
	Comp  []DepthMask
}

// WaveMaster is the coordinator side of a distributed DPOR exploration:
// the node tree, the visited set and the serial commit pass. It holds
// no replay state — committing never executes the program. Not
// concurrency-safe; fabric coordinators drive it from their event loop.
type WaveMaster struct {
	e *dexplorer
}

// NewWaveMaster builds the engine for one exploration, positioned at
// the root wave. The builder is invoked once, to size the engine and
// derive the symmetry canon; it must be the same program the
// WaveProbers build. Programs wider than 64 processes are rejected,
// like the in-process engine's fallback boundary.
func NewWaveMaster(build Builder, prop Property, opts Options) (*WaveMaster, error) {
	if !opts.DPOR {
		return nil, errors.New("check: wave distribution requires the DPOR engine; run other explorations whole with Explore")
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 200
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	mem, procs, err := build()
	if err != nil {
		return nil, fmt.Errorf("check: builder: %w", err)
	}
	nprocs := len(procs)
	if nprocs > 64 {
		return nil, errors.New("check: wave distribution supports at most 64 processes; ship wider programs as whole jobs")
	}
	var sym *symCanon
	if opts.Symmetry {
		sym = newSymCanon(mem, nprocs)
	}
	return &WaveMaster{e: newDExplorer(prop, opts, maxDepth, maxStates, nprocs, sym)}, nil
}

// Wave returns the current wave's tasks in wire shape, in task order.
// Empty exactly when Done. The caller may split the slice into chunks
// for any number of probers, but Commit wants the reports back in this
// order.
func (m *WaveMaster) Wave() []Node {
	out := make([]Node, len(m.e.wave))
	for i, t := range m.e.wave {
		out[i] = Node{Schedule: t.sched, Sleep: t.node.sleep}
	}
	return out
}

// Commit consumes exactly one report per current-wave task, in task
// order, and advances the engine to the next wave: mask registration,
// violation selection (the schedule-least of the wave, never
// committing the violating wave — identical to in-process), then the
// serial per-task commits.
func (m *WaveMaster) Commit(reports []WaveReport) error {
	if len(reports) != len(m.e.wave) {
		return fmt.Errorf("check: wave commit: %d reports for a wave of %d tasks", len(reports), len(m.e.wave))
	}
	stages := make([]dstage, len(reports))
	for i := range reports {
		stages[i] = dstage{t: m.e.wave[i], rep: reports[i]}
		if reports[i].HasViol {
			stages[i].verr = errors.New(reports[i].Viol)
		}
	}
	m.e.advance(stages)
	return nil
}

// Done reports the exploration is complete (the next wave is empty).
func (m *WaveMaster) Done() bool { return len(m.e.wave) == 0 }

// Result summarises the exploration. No serial canonicalisation pass is
// needed: the commit pass already selects the same (schedule-least at the
// first violating wave) witness the in-process engine reports.
func (m *WaveMaster) Result() Result { return m.e.result() }

// WaveProber executes wave-task stages for one program: the worker side
// of a distributed DPOR exploration. It is single-goroutine (one
// replayCore); run several for parallelism. Construct with
// NewWaveProber.
type WaveProber struct {
	cfg   dconfig
	core  replayCore
	sc    *dscratch
	stats ProbeStats
}

// NewWaveProber builds a wave prober's private program instance. The
// options must select the DPOR engine — the stage code IS the DPOR
// expansion — and the program must match the WaveMaster's.
func NewWaveProber(build Builder, prop Property, opts Options) (*WaveProber, error) {
	if !opts.DPOR {
		return nil, errors.New("check: wave probing requires the DPOR engine; run other explorations whole with Explore")
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 200
	}
	p := &WaveProber{}
	if err := p.core.init(build, maxDepth, opts.CollapseSpins); err != nil {
		return nil, err
	}
	nprocs := len(p.core.procs)
	if nprocs > 64 {
		return nil, errors.New("check: wave probing supports at most 64 processes")
	}
	var sym *symCanon
	if opts.Symmetry {
		sym = newSymCanon(p.core.mem, nprocs)
	}
	p.cfg = dconfig{
		prop:     prop,
		opts:     opts,
		maxDepth: maxDepth,
		nprocs:   nprocs,
		sym:      sym,
	}
	p.sc = newDScratch(maxDepth, nprocs, p.core.mem.NumCells())
	return p, nil
}

// Close releases the prober's live session.
func (p *WaveProber) Close() { p.core.close() }

// Stats returns the prober's cumulative replay accounting.
func (p *WaveProber) Stats() ProbeStats { return p.stats }

// ProbeWave runs the stage pass for one wave task: replay, race
// analysis, property check, visited key, first batch, compensation —
// dpor.go's pure per-task work, with panics contained as errors like
// everywhere else in the checker. Consecutive tasks share their
// longest common schedule prefix through the live session, the fast
// path the serial DFS rides, and through the path analysis syncPath
// keeps.
func (p *WaveProber) ProbeWave(nd Node) (rep WaveReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check: panicked expanding schedule prefix %v: %v", nd.Schedule, r)
		}
	}()
	p.stats.Probes++
	before := p.core.executed()
	verr, err := p.cfg.stage(&p.core, p.sc, nd.Schedule, nd.Sleep, &rep)
	if err != nil {
		return WaveReport{}, err
	}
	p.stats.account(p.core.executed()-before, len(nd.Schedule))
	if verr != nil {
		rep.HasViol = true
		rep.Viol = verr.Error()
	}
	return rep, nil
}
