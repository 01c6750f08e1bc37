package check

// Differential gates for the incremental state identity (the fold in
// replay.go). stateAt folds each trace event once into per-process
// canonical histories with chain digests, written-bit masks and
// statuses, and pops them back on a rewind; stateHash and the sibling
// peek read only that fold, and canonicalKey reads the permuted chains
// the core caches alongside it (symmetry.go). These tests hold them to
// a from-scratch rebuild of the same state from the whole trace — the
// loops the checker ran at every node before the fold and the cache
// existed — over random walks with random rewinds, and hold the peek to
// the key each child computes for itself.

import (
	"math/rand"
	"slices"
	"testing"

	"cfc/internal/contention"
	"cfc/internal/driver"
	"cfc/internal/mutex"
	"cfc/internal/naming"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// foldProgram is a portfolio program the fold tests walk.
type foldProgram struct {
	name    string
	n       int
	build   Builder
	crashes bool // walks and explorations branch on crashes
}

// foldPrograms covers what the fold has to get right: spins that
// collapse (ttas, lamport-fast, and peterson, whose two-read wait loop
// collapses a period of two entries, which a rewind must restore), packed
// field views (lamport-packed) and crashes (a naming tree, the
// splitter). Every program that declares symmetry also has its
// canonical keys checked: ttas, peterson (a pid family and a pid-valued
// register), the naming tree, tas-lock over the 24 permutations of
// n = 4, the splitter (a pid-valued register), and pid-probe, whose
// reads of a pid-valued register the permutations cannot always remap.
func foldPrograms() []foldProgram {
	return []foldProgram{
		{"ttas-lock/n=3", 3, symMutexBuild(mutex.TTASLock{}, 3), false},
		{"lamport-fast/n=2", 2, symMutexBuild(mutex.Lamport{}, 2), false},
		{"peterson-2p/n=2", 2, symMutexBuild(mutex.Peterson{}, 2), false},
		{"lamport-packed/n=2", 2, symMutexBuild(mutex.PackedLamport{}, 2), false},
		{"taf-tree/n=3+crash", 3, symTaskBuild(naming.TAFTree{}.Model(), 3, func(mem *sim.Memory) (driver.TaskRunner, error) {
			return naming.TAFTree{}.New(mem, 3)
		}), true},
		{"tas-lock/n=4", 4, symMutexBuild(mutex.TASLock{}, 4), false},
		{"splitter/n=3+crash", 3, symTaskBuild(contention.Splitter{}.Model(), 3, func(mem *sim.Memory) (driver.TaskRunner, error) {
			return contention.Splitter{}.New(mem, 3)
		}), true},
		{"pid-probe/n=3", 3, pidProbeBuild(3), false},
	}
}

// pidProbeBuild is a symmetric program whose processes read the
// pid-valued register x before writing their own id to it or after,
// depending on what they read in y first. A read before the reader's
// own write observes a value no write of its own proves, so the state's
// key falls back to the identity; after the write it remaps — and a
// rewind that changes what y returns turns one kind of read into the
// other. No portfolio program reads a pid-valued register before
// writing it, so this one is what holds canonicalKey's fallback and the
// own-write masks its cache restores on a cut to the scratch loop.
func pidProbeBuild(n int) Builder {
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.AtomicRegisters)
		x := mem.Register("x", 2)
		y := mem.Bit("y")
		mem.DeclareSymmetric(n)
		mem.DeclarePidValued(x, sim.PidEncExact)
		procs := make([]sim.ProcFunc, n)
		for pid := range procs {
			procs[pid] = func(p *sim.Proc) {
				id := uint64(p.ID())
				if p.Read(y) == 0 {
					p.Write(x, id)
				}
				if p.Read(x) == id {
					p.Write(y, 1)
				}
			}
		}
		return mem, procs, nil
	}
}

// scratchState is the state identity rebuilt from a whole trace.
type scratchState struct {
	hist   [][]histEntry
	chain  [][]uint64
	wmask  []uint64
	status []uint8
	vals   []uint64
	hash   uint64
}

// rebuildState is the reference: one pass over every event of the trace
// into per-process histories, written masks and statuses, the
// whole-history spin collapse, cell values replayed from the trace, and
// the digest chained and summed from scratch, one term per cell and per
// process.
func rebuildState(tr *sim.Trace, ncells int, collapse bool) scratchState {
	s := scratchState{
		hist:   make([][]histEntry, tr.NumProcs),
		chain:  make([][]uint64, tr.NumProcs),
		wmask:  make([]uint64, ncells),
		status: make([]uint8, tr.NumProcs),
	}
	for _, ev := range tr.Events {
		switch {
		case ev.Kind == sim.KindCrash:
			s.status[ev.PID] |= statusCrashed
		case ev.Kind == sim.KindMark && ev.Phase == sim.PhaseDone:
			s.status[ev.PID] |= statusDone
			continue
		case ev.Kind == sim.KindAccess && ev.Op.Mutates():
			s.wmask[ev.Cell] |= viewMask(ev.Shift, ev.Width)
		}
		s.hist[ev.PID] = append(s.hist[ev.PID], entryOf(&ev))
	}
	s.vals = tr.ReplayValuesInto(nil, len(tr.Events))
	for i, v := range s.vals {
		s.hash += mix64(cellSeed(i), v)
	}
	for pid, h := range s.hist {
		if collapse {
			h = collapseSpins(h)
			s.hist[pid] = h
		}
		var d uint64
		for _, en := range h {
			d = chainEntry(d, en.shape(), en.ret, en.aux)
			s.chain[pid] = append(s.chain[pid], d)
		}
		s.hash += mixHist(procSeed(pid), len(h), d)
	}
	return s
}

// collapseSpins rewrites a history into its spin-canonical form the way
// the checker did before the fold: the history is rebuilt one entry at a
// time, and after every append any trailing repetition of a period of up
// to maxSpinPeriod identical entries is dropped, as often as one is
// found. The rewrite is in place.
func collapseSpins(h []histEntry) []histEntry {
	out := h[:0] // in place: writes trail reads
	for _, e := range h {
		out = append(out, e)
		for {
			reduced := false
			for p := 1; p <= maxSpinPeriod && 2*p <= len(out); p++ {
				if tailRepeats(out, p) {
					out = out[:len(out)-p]
					reduced = true
					break
				}
			}
			if !reduced {
				break
			}
		}
	}
	return out
}

// tailRepeats reports whether the last p entries equal the p entries
// before them.
func tailRepeats(h []histEntry, p int) bool {
	n := len(h)
	for i := 0; i < p; i++ {
		if h[n-1-i] != h[n-1-p-i] {
			return false
		}
	}
	return true
}

// symDigest is the state digest under pid permutation k, walked from
// scratch the way canonicalKey computed it before the permuted chain
// cache: the sum of the permuted cell values' terms and of every
// history's term in permuted slot order, each entry remapped by
// remapHistEntry and chained, then the permuted sleep mask mixed in. It
// reads the state the preceding stateAt folded. ok is false when some
// recorded access cannot be remapped.
func (c *replayCore) symDigest(sy *symCanon, k int, sleep uint64) (uint64, bool) {
	perm, inv := sy.perms[k], sy.invs[k]
	var h uint64
	for i, v := range sy.spec.RemapCells(nil, c.vals, c.wmask, perm) {
		h += mix64(cellSeed(i), v)
	}
	own := make([]uint64, len(c.vals))
	for q := range c.hist {
		hh := c.hist[inv[q]] // slot q of the permuted run is old pid inv[q]
		clear(own)
		var d uint64
		for _, en := range hh {
			ren, ok := remapHistEntry(sy.spec, perm, en, own)
			if !ok {
				return 0, false
			}
			d = chainEntry(d, ren.shape(), ren.ret, ren.aux)
		}
		h += mixHist(procSeed(q), len(hh), d)
	}
	return mix64(h, remapPidMask(sleep, perm)), true
}

// remapHistEntry rewrites one history entry under perm, accumulating the
// process's own writes in own: access entries relocate/rewrite through
// their view descriptor; marks, outputs and crashes pass through.
func remapHistEntry(spec *sim.SymSpec, perm []int, en histEntry, own []uint64) (histEntry, bool) {
	if en.kind != uint8(sim.KindAccess) {
		return en, true
	}
	d := spec.ResolveView(en.cell, en.shift, en.width)
	if d.Opaque() {
		return histEntry{}, false
	}
	op := opset.Op(en.op)
	if op.ReturnsValue() {
		var ok bool
		en.ret, ok = spec.RemapValueChecked(d, en.shift, en.ret, own[en.cell], perm)
		if !ok {
			return histEntry{}, false
		}
	}
	if op == opset.WriteWord {
		en.aux = spec.RemapValue(d, en.shift, en.aux, perm)
	}
	if op.IsBitOp() && spec.RemapValue(d, en.shift, 1, perm) != 1 {
		en.op = uint8(op.Dual())
	}
	if op.Mutates() {
		own[en.cell] |= viewMask(en.shift, en.width)
	}
	en.cell, en.shift = spec.RemapLoc(d, en.cell, en.shift, perm)
	return en, true
}

// scratchCanonicalKey is canonicalKey from scratch: the minimum of
// symDigest over the group, or the identity key if some permutation
// cannot remap the state.
func scratchCanonicalKey(c *replayCore, sy *symCanon, sleep uint64) uint64 {
	id := mix64(c.stateHash(), sleep)
	best := id
	for k := 1; k < len(sy.perms); k++ {
		d, ok := c.symDigest(sy, k, sleep)
		if !ok {
			return id
		}
		best = min(best, d)
	}
	return best
}

// checkFold fails unless the core's fold equals the from-scratch rebuild
// of the trace stateAt returned.
func checkFold(t testing.TB, c *replayCore, tr *sim.Trace, sched []int) {
	t.Helper()
	want := rebuildState(tr, c.mem.NumCells(), c.collapse)
	if len(c.undo) != len(tr.Events) {
		t.Fatalf("at %v: %d undo records for %d events", sched, len(c.undo), len(tr.Events))
	}
	for pid := range want.hist {
		if !slices.Equal(c.hist[pid], want.hist[pid]) {
			t.Fatalf("at %v: pid %d history\n fold    %v\n scratch %v", sched, pid, c.hist[pid], want.hist[pid])
		}
		if !slices.Equal(c.chain[pid], want.chain[pid]) {
			t.Fatalf("at %v: pid %d chain digests differ", sched, pid)
		}
	}
	if !slices.Equal(c.wmask, want.wmask) {
		t.Fatalf("at %v: written masks %x, scratch %x", sched, c.wmask, want.wmask)
	}
	if !slices.Equal(c.status, want.status) {
		t.Fatalf("at %v: statuses %v, scratch %v", sched, c.status, want.status)
	}
	if !slices.Equal(c.vals, want.vals) {
		t.Fatalf("at %v: cell values %v, scratch %v", sched, c.vals, want.vals)
	}
	if got := c.stateHash(); got != want.hash {
		t.Fatalf("at %v: stateHash %#x, scratch %#x", sched, got, want.hash)
	}
}

// crashedIn reports whether schedule crashes pid.
func crashedIn(schedule []int, pid int) bool {
	for _, s := range schedule {
		if s == -pid-1 {
			return true
		}
	}
	return false
}

// foldWalkMaxLen bounds a walk's schedule; a move that would extend past
// it rewinds instead, as does one at a terminal state.
const foldWalkMaxLen = 48

// foldWalk decodes moves into a walk of stateAt over prog and checks the
// fold against the scratch rebuild after every call, and, for a program
// that declares symmetry, the cached canonical key (under a sleep mask
// taken from the move) against scratchCanonicalKey. Each byte is one
// move: b%16 == 0 rewinds to a prefix of length (b/16) mod (len+1);
// b%16 == 1 jumps back to an earlier position of the walk, as a stage
// worker moving to another wave task does; b%16 == 2 crashes the live
// process b/16 picks (when the program explores crashes and it has not
// crashed); b%16 in [3, 10) steps the process the last step did, if it
// is still live, so that one process spins through whole busy-wait
// periods and collapses them; anything else steps the live process b/16
// picks.
func foldWalk(t testing.TB, prog foldProgram, collapse bool, moves []byte) {
	var c replayCore
	if err := c.init(prog.build, 200, collapse); err != nil {
		t.Fatal(err)
	}
	defer c.close()
	sy := newSymCanon(c.mem, prog.n)
	checkKey := func(sched []int, sleep uint64) {
		t.Helper()
		if sy == nil {
			return
		}
		sleep &= 1<<uint(prog.n) - 1
		if got, want := c.canonicalKey(sy, c.stateHash(), sleep), scratchCanonicalKey(&c, sy, sleep); got != want {
			t.Fatalf("at %v sleep %#x: canonicalKey %#x, scratch %#x", sched, sleep, got, want)
		}
	}
	var sched []int
	var seen [][]int
	tr, live, err := c.stateAt(sched)
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, &c, tr, sched)
	checkKey(sched, 0)
	for _, b := range moves {
		arg := int(b / 16)
		switch {
		case b%16 == 0 || len(live) == 0 || len(sched) >= foldWalkMaxLen:
			sched = sched[:arg%(len(sched)+1)]
		case b%16 == 1 && len(seen) > 0:
			sched = slices.Clone(seen[arg%len(seen)])
		default:
			pid := live[arg%len(live)]
			if n := len(sched); b%16 >= 3 && b%16 < 10 && n > 0 && slices.Contains(live, sched[n-1]) {
				pid = sched[n-1]
			}
			if b%16 == 2 && prog.crashes && !crashedIn(sched, pid) {
				sched = append(sched, -pid-1)
			} else {
				sched = append(sched, pid)
			}
		}
		if tr, live, err = c.stateAt(sched); err != nil {
			t.Fatalf("at %v: %v", sched, err)
		}
		checkFold(t, &c, tr, sched)
		checkKey(sched, uint64(b))
		if len(seen) < 64 {
			seen = append(seen, slices.Clone(sched))
		}
	}
}

// TestFoldMatchesScratch walks every fold program with and without spin
// collapse — random extensions, crashes, rewinds and jumps — and
// requires the folded histories, chain digests, written masks, statuses,
// cell values and stateHash to equal a from-scratch rebuild after every
// stateAt, and the cached canonical key of every symmetric program to
// equal the from-scratch loop over its permutations.
func TestFoldMatchesScratch(t *testing.T) {
	seed := int64(0)
	for _, prog := range foldPrograms() {
		for _, collapse := range []bool{true, false} {
			name := prog.name + "/collapse"
			if !collapse {
				name = prog.name + "/raw"
			}
			seed++
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				moves := make([]byte, 2000)
				rng.Read(moves)
				foldWalk(t, prog, collapse, moves)
			})
		}
	}
}

// FuzzFoldMatchesScratch is TestFoldMatchesScratch driven by the fuzzer:
// the input picks the program and the collapse mode, and every byte of
// moves is one move of the walk (see foldWalk). The committed corpus
// (testdata/fuzz) seeds every program in both modes.
func FuzzFoldMatchesScratch(f *testing.F) {
	progs := foldPrograms()
	f.Fuzz(func(t *testing.T, prog uint8, collapse bool, moves []byte) {
		foldWalk(t, progs[int(prog)%len(progs)], collapse, moves)
	})
}

// TestPeekKeyMatchesChild runs a serial depth-first exploration of every
// fold program, with and without collapse, and at every expanded node
// requires each branch's peekKey to equal the stateHash the child
// computes after its own stateAt — for every child, including those the
// explorer would never peek (terminal, violating or already visited).
// With collapse every exploration is complete at cfccheck's depth bound;
// without, the spins are unbounded and the state cap ends it.
func TestPeekKeyMatchesChild(t *testing.T) {
	for _, prog := range foldPrograms() {
		for _, collapse := range []bool{true, false} {
			name := prog.name + "/collapse"
			if !collapse {
				name = prog.name + "/raw"
			}
			t.Run(name, func(t *testing.T) {
				opts := Options{CollapseSpins: collapse, ExploreCrashes: prog.crashes}
				maxDepth, maxStates := 120, 8000
				e := &explorer{opts: opts, maxDepth: maxDepth}
				if err := e.core.init(prog.build, maxDepth, collapse); err != nil {
					t.Fatal(err)
				}
				defer e.core.close()
				visited := make(map[uint64]bool)
				peeks := 0
				var dfs func(sched []int)
				dfs = func(sched []int) {
					_, live, err := e.core.stateAt(sched)
					if err != nil {
						t.Fatalf("at %v: %v", sched, err)
					}
					if len(live) == 0 || len(sched) >= maxDepth || len(visited) >= maxStates {
						return
					}
					h := e.core.stateHash()
					if visited[h] {
						return
					}
					visited[h] = true
					nb := len(live)
					if prog.crashes {
						nb *= 2
					}
					pend := e.core.pendingOps()
					keys := make([]uint64, nb)
					for i := range nb {
						k, ok := e.peekKey(live, pend, i)
						if !ok {
							t.Fatalf("at %v: branch %d cannot be peeked", sched, branchEntry(live, i))
						}
						keys[i] = k
					}
					for i := range nb {
						child := append(slices.Clip(sched), branchEntry(live, i))
						if _, _, err := e.core.stateAt(child); err != nil {
							t.Fatalf("at %v: %v", child, err)
						}
						if got := e.core.stateHash(); got != keys[i] {
							t.Fatalf("at %v: peekKey %#x, child's stateHash %#x", child, keys[i], got)
						}
						peeks++
						dfs(child)
					}
				}
				dfs(nil)
				t.Logf("%d states, %d peeks checked", len(visited), peeks)
			})
		}
	}
}
