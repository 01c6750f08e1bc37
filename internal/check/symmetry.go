package check

import (
	"slices"

	"cfc/internal/opset"
	"cfc/internal/sim"
)

// This file is the symmetry-reduction layer of the DPOR explorer: when
// the program's Memory declares a pid-symmetry group (see
// sim/symmetry.go), the visited-set key of a node is the minimum, over
// every pid permutation, of the state digest with the permutation
// applied — so all states in one symmetry orbit collapse to a single
// canonical key, and only one representative's subtree is expanded.
//
// Soundness rests on the declared claim: permuting pids of a reachable
// state yields a state whose futures are the permuted futures, so a
// property that is itself pid-symmetric (all the metrics properties:
// mutual exclusion, unique outputs and detection quantify over
// processes, never naming one) holds of every orbit member iff it holds
// of the representative. A violation found under symmetry is real
// as-is: symmetry only prunes the visited set, it never alters the
// schedules actually executed, so every reported witness replays.
//
// The permuted digest is assembled from the state the preceding stateAt
// call folded (c.vals, c.wmask, c.hist): cell values are remapped
// through SymSpec.RemapCells, per-pid histories are read in permuted
// slot order, each slot contributes the term stateHash would give it
// (mix64 of its cell seed and value, mixHist of its process seed,
// length and chain digest), the terms are summed, and the
// (live-normalised) sleep mask is permuted alongside. A
// permuted history's chain digest cannot be read off the fold — the
// remap rewrites its entries, each recorded access relocated/rewritten
// through its ViewDesc — so the core keeps a second chain per process:
// for every position of its folded history, the chain digest (the
// fold's chainEntry) of the remapped prefix under every non-identity
// permutation (symCache). canonicalKey extends it lazily from the last
// cached position, and the fold cuts its cached prefix back wherever
// it truncates a history (a spin collapse, a rewind), so each entry is
// remapped once per permutation while it stays in the history, and a
// key costs O(permutations × (cells + processes)). The cache holds the
// exact digests a from-scratch walk over every history would chain —
// it is not keyed by a digest, so it adds no hash assumption — and the
// fold tests hold it to that walk after every stateAt. By construction
// the identity permutation's digest equals mix64(stateHash, sleep) —
// the key the unsymmetrised explorer would use — which the symmetry
// unit tests pin.
//
// An access through a view the spec cannot remap (ViewDesc.Opaque, e.g.
// a partial read of a pid-valued field) makes the whole state fall back
// to its identity digest. The fallback is a pure function of the state,
// so determinism is preserved; it merely forgoes collapsing that orbit.

// maxSymProcs bounds the process count symmetry reduction enumerates
// permutations for: beyond this, n! dominates any conceivable saving
// and the reduction silently stays off.
const maxSymProcs = 6

// symCanon is the read-only, worker-shared symmetry context of one
// exploration: the declared spec plus the full permutation group.
type symCanon struct {
	spec  *sim.SymSpec
	perms [][]int // perms[0] is the identity
	invs  [][]int // invs[k] is the inverse of perms[k]
}

// newSymCanon builds the symmetry context, or returns nil when the
// reduction does not apply: not requested, nothing declared, the
// declared process count does not match the program's, or the group is
// too large to enumerate.
func newSymCanon(mem *sim.Memory, nprocs int) *symCanon {
	spec := mem.Symmetry()
	if spec == nil || spec.NumPids() != nprocs || nprocs < 2 || nprocs > maxSymProcs {
		return nil
	}
	perms := permutations(nprocs)
	invs := make([][]int, len(perms))
	for k, p := range perms {
		inv := make([]int, nprocs)
		for i, v := range p {
			inv[v] = i
		}
		invs[k] = inv
	}
	return &symCanon{spec: spec, perms: perms, invs: invs}
}

// permutations enumerates all permutations of 0..n-1 in lexicographic
// order, identity first.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	// The swap enumeration is not lexicographic beyond the first entry,
	// but perms[0] is the identity, which is all callers rely on.
	return out
}

// remapPidMask permutes a pid bitmask: bit p of mask becomes bit
// perm[p].
func remapPidMask(mask uint64, perm []int) uint64 {
	var out uint64
	for p, q := range perm {
		if mask&(1<<uint(p)) != 0 {
			out |= 1 << uint(q)
		}
	}
	return out
}

// symDesc resolves (and caches, per core — the cache is goroutine-
// confined scratch) the permutation behaviour of a register view.
func (c *replayCore) symDesc(spec *sim.SymSpec, cell int32, shift, width uint8) sim.ViewDesc {
	key := uint32(cell)<<16 | uint32(shift)<<8 | uint32(width)
	if d, ok := c.symDescs[key]; ok {
		return d
	}
	if c.symDescs == nil {
		c.symDescs = make(map[uint32]sim.ViewDesc)
	}
	d := spec.ResolveView(cell, shift, width)
	c.symDescs[key] = d
	return d
}

// symCache is a core's permuted chain cache for one symmetry context.
// Every process's entry describes a prefix of its folded history.
type symCache struct {
	sy     *symCanon // the group the cache was built for (nil: none yet)
	stride int       // non-identity permutations, len(sy.perms)-1
	zero   []uint64  // stride zeros: the empty history's digests
	procs  []symProc
}

// symProc is one process's slice of the cache.
type symProc struct {
	// n is the cached prefix length, never beyond the folded history.
	n int
	// bad: entry n-1 cannot be remapped under some permutation (an
	// opaque view, or an observation RemapValueChecked cannot prove
	// post-write). The cache stops there: every longer history contains
	// the entry, so every state until a cut falls back to its identity
	// key.
	bad bool
	// chain[i*stride+k-1] is the chain digest of entries 0..i remapped
	// under permutation k.
	chain []uint64
	// own holds, per cell, the bits the process wrote in entries
	// 0..n-1 — the pre-write gate of RemapValueChecked — and undo[i]
	// the own mask of entry i's cell before entry i, which is what a
	// cut restores.
	own  []uint64
	undo []uint64
}

// reset empties the cache and binds it to sy.
func (s *symCache) reset(sy *symCanon, nprocs, ncells int) {
	s.sy, s.stride = sy, len(sy.perms)-1
	s.zero = make([]uint64, s.stride)
	s.procs = make([]symProc, nprocs)
	for i := range s.procs {
		s.procs[i].own = make([]uint64, ncells)
	}
}

// cut drops pid's cached entries from position n on, before the fold
// truncates the history hist to n entries (hist must still hold them),
// restoring the own-write masks entry by entry.
func (s *symCache) cut(hist []histEntry, pid, n int) {
	if s.procs == nil || s.procs[pid].n <= n {
		return
	}
	p := &s.procs[pid]
	for i := p.n - 1; i >= n; i-- {
		if en := hist[i]; en.kind == uint8(sim.KindAccess) && opset.Op(en.op).Mutates() {
			p.own[en.cell] = p.undo[i]
		}
	}
	p.n, p.bad = n, false
	p.chain, p.undo = p.chain[:n*s.stride], p.undo[:n]
}

// digest is the chain digest of pid's cached prefix under permutation
// k >= 1 (0 for the empty history).
func (s *symCache) digest(pid, k int) uint64 {
	p := &s.procs[pid]
	if p.n == 0 {
		return 0
	}
	return p.chain[(p.n-1)*s.stride+k-1]
}

// symExtend caches pid's remapped chains up to its whole folded history
// and reports whether every entry remaps under every permutation. Each
// new entry's view is resolved once for all permutations, and the
// cached length advances only once an entry's digests are complete.
func (c *replayCore) symExtend(pid int) bool {
	s := &c.sym
	p := &s.procs[pid]
	h := c.hist[pid]
	spec, stride := s.sy.spec, s.stride
	for !p.bad && p.n < len(h) {
		i := p.n
		en := h[i]
		p.chain = slices.Grow(p.chain[:i*stride], stride)[:(i+1)*stride]
		dst := p.chain[i*stride:]
		prev := s.zero // the empty history's digests
		if i > 0 {
			prev = p.chain[(i-1)*stride : i*stride]
		}
		var undo uint64
		ok := true
		if en.kind != uint8(sim.KindAccess) {
			// Marks, outputs and crashes are pid-neutral.
			shape := en.shape()
			for k := range dst {
				dst[k] = chainEntry(prev[k], shape, en.ret, en.aux)
			}
		} else {
			d := c.symDesc(spec, en.cell, en.shift, en.width)
			own := p.own[en.cell]
			undo = own
			ok = !d.Opaque()
			for k := 0; ok && k < stride; k++ {
				var ren histEntry
				ren, ok = remapAccess(spec, d, s.sy.perms[k+1], en, own)
				dst[k] = chainEntry(prev[k], ren.shape(), ren.ret, ren.aux)
			}
			if ok && opset.Op(en.op).Mutates() {
				p.own[en.cell] = own | viewMask(en.shift, en.width)
			}
		}
		p.undo = append(p.undo[:i], undo)
		p.n, p.bad = i+1, !ok
	}
	return !p.bad
}

// remapAccess rewrites one recorded access under perm, given its view's
// (non-opaque) descriptor d and own, the bits of its cell the process
// wrote before it. Three value-bearing channels are remapped: the
// returned value (gated on own, because a pre-write read observes the
// initial value, which does not permute), the written word argument,
// and — for the eight single-bit operations, whose written value lives
// in the OPCODE — the operation itself, which maps to its dual exactly
// when the permutation flips the bit's value sense (the paper's 0 <-> 1
// relabelling). ok is false when the returned value cannot be proven
// post-write (see RemapValueChecked).
func remapAccess(spec *sim.SymSpec, d sim.ViewDesc, perm []int, en histEntry, own uint64) (histEntry, bool) {
	op := opset.Op(en.op)
	if op.ReturnsValue() {
		var ok bool
		en.ret, ok = spec.RemapValueChecked(d, en.shift, en.ret, own, perm)
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
	en.cell, en.shift = spec.RemapLoc(d, en.cell, en.shift, perm)
	return en, true
}

// canonicalKey is the node's visited-set key: with symmetry, the
// minimum digest over the permutation group; without (sy == nil, or an
// unmappable view), the identity digest mix64(base, sleep), base being
// stateHash. Under each permutation it sums the same terms stateHash
// does, slot by slot. It must follow the node's stateAt; the histories'
// permuted chains come from the cache, extended to the folded histories
// first.
func (c *replayCore) canonicalKey(sy *symCanon, base, sleep uint64) uint64 {
	best := mix64(base, sleep) // == the identity digest: the same terms, summed
	if sy == nil {
		return best
	}
	if c.sym.sy != sy {
		c.sym.reset(sy, len(c.hist), len(c.wmask))
	}
	for pid := range c.hist {
		if !c.symExtend(pid) {
			return best
		}
	}
	nc := len(c.wmask)
	for k := 1; k < len(sy.perms); k++ {
		perm, inv := sy.perms[k], sy.invs[k]
		var h uint64
		c.symVals = sy.spec.RemapCells(c.symVals, c.vals, c.wmask, perm)
		for i, v := range c.symVals {
			h += mix64(c.seeds[i], v)
		}
		for q := range c.hist {
			// Slot q of the permuted run is old pid inv[q].
			h += mixHist(c.seeds[nc+q], len(c.hist[inv[q]]), c.sym.digest(inv[q], k))
		}
		if d := mix64(h, remapPidMask(sleep, perm)); d < best {
			best = d
		}
	}
	return best
}
