package sim

import "fmt"

// This file is the pid-symmetry declaration surface of the memory. A
// program whose processes are interchangeable — every process runs the
// same body, differing only through the process id it was given — has a
// state space closed under pid permutations: permuting the pids of a
// reachable state yields a reachable state with a permuted future. A
// checker that canonicalises states under that group explores one
// representative per orbit, an up-to-n!-fold reduction.
//
// Interchangeability is a whole-program property the simulator cannot
// infer from opaque bodies, so it is declared, in two parts:
//
//   - the algorithm constructor calls DeclareSymmetric(n) to claim that
//     its n bodies are identical functions of their shared-memory
//     observations, up to the declared pid encodings below;
//
//   - wherever a pid leaks into shared memory, the constructor says how:
//     DeclarePidFamily marks a per-pid register family (process p's slot
//     is regs[p]; permuting pids relocates the slots), and
//     DeclarePidValued marks a register whose *value* encodes a pid
//     (permuting pids rewrites the value under the declared encoding).
//
// A driver that composes declared-symmetric algorithms into a program
// whose bodies are *not* uniform (mixed workloads: different algorithms
// on different pids) must call ClearSymmetry after building, because the
// composed program breaks the constructors' claims. The checker treats
// an absent spec as "no symmetry": nothing is collapsed.
//
// The claim has a scalarset-style restriction (cf. Murphi): the body
// must access pid-indexed structures equivariantly. A loop that scans a
// per-pid family in FIXED index order (lamport's await-all-b loop) makes
// the intermediate states non-symmetric — the loop counter is an
// absolute pid that a permutation would have to reorder, not just
// relabel — and a remapped intermediate history can coincide with a
// genuinely different loop-progress state, so declaring such an
// algorithm is unsound, not merely unproductive. Those constructors
// must not declare.
//
// PidEncExact carries a second subtlety: when a register's initial
// value lies in the pid range (a zeroed bit, with pid 0 valid), the
// value alone cannot distinguish "never written" from "pid 0 wrote its
// id", and only written values permute in the mirrored execution. The
// remap entry points therefore take written-bit masks: unwritten exact
// segments pass through unchanged, and an observed value that cannot be
// proven post-write is rejected (RemapValueChecked), making the caller
// fall back to the identity digest for that state.
//
// The declarations are trusted the same way the rest of the reduction
// stack is kept honest: differentially. The check package's symmetry
// tests prove digest invariance under every permutation for each
// declaring algorithm, and cfccheck's -pordiff gate compares DPOR+sym
// verdicts with the unreduced reference portfolio-wide.

// PidEnc says how a register value encodes a process id.
type PidEnc uint8

const (
	// PidEncNone marks a value that does not encode a pid (unused by
	// declarations; the zero value of the type).
	PidEncNone PidEnc = iota
	// PidEncExact: value v in [0, n) is the id of process v; other
	// values are pid-neutral.
	PidEncExact
	// PidEncPlusOne: value 0 means "no process"; value v in [1, n] is
	// the id of process v-1; other values are pid-neutral.
	PidEncPlusOne
)

// remap rewrites an encoded pid value under the permutation perm (old
// pid p becomes perm[p]). Values outside the encoding's pid range pass
// through unchanged.
func (e PidEnc) remap(v uint64, perm []int) uint64 {
	switch e {
	case PidEncExact:
		if v < uint64(len(perm)) {
			return uint64(perm[v])
		}
	case PidEncPlusOne:
		if v >= 1 && v <= uint64(len(perm)) {
			return uint64(perm[v-1]) + 1
		}
	}
	return v
}

// symSeg is one pid-relevant bit range of a cell: either process
// member's slot of family (enc == PidEncNone), or a pid-valued field
// (family < 0).
type symSeg struct {
	cell   int32
	shift  uint8
	width  uint8
	enc    PidEnc
	family int32
	member int32
}

func (s symSeg) mask() uint64 {
	if s.width >= MaxWidth {
		return ^uint64(0)
	}
	return ((uint64(1) << s.width) - 1) << s.shift
}

// SymSpec is a program's declared pid-symmetry group: the process count
// plus every shared-memory location where a pid is encoded. It is built
// through the Memory declaration methods and consumed read-only by the
// checker; a nil *SymSpec means "no symmetry declared".
type SymSpec struct {
	n        int
	families [][]symSeg
	byCell   map[int32][]symSeg
}

// NumPids returns the process count the symmetry was declared for.
func (s *SymSpec) NumPids() int { return s.n }

// DeclareSymmetric claims that the program's n process bodies are
// identical up to pid encodings declared with DeclarePidFamily and
// DeclarePidValued. It is idempotent for the same n (several symmetric
// algorithms composed into one uniform program may each declare) and
// panics on a conflicting n — such a composition is not symmetric and
// must call ClearSymmetry instead.
func (m *Memory) DeclareSymmetric(n int) {
	if n < 1 {
		panic(fmt.Sprintf("sim: DeclareSymmetric(%d): process count must be positive", n))
	}
	if m.sym != nil {
		if m.sym.n != n {
			panic(fmt.Sprintf("sim: DeclareSymmetric(%d) conflicts with earlier declaration for %d processes", n, m.sym.n))
		}
		return
	}
	m.sym = &SymSpec{n: n, byCell: make(map[int32][]symSeg)}
}

// ClearSymmetry withdraws every symmetry declaration. Drivers that
// compose declared-symmetric algorithms into a non-uniform program
// (different bodies on different pids) must call it after building.
func (m *Memory) ClearSymmetry() {
	m.sym = nil
}

// Symmetry returns the declared symmetry spec, or nil when the program
// declared none (or cleared it).
func (m *Memory) Symmetry() *SymSpec { return m.sym }

// DeclarePidFamily declares a per-pid register family: regs[p] is the
// private slot of process p, all slots the same width, and permuting
// pids relocates slot contents (slot values themselves are pid-neutral).
// DeclareSymmetric must have been called first with n == len(regs).
func (m *Memory) DeclarePidFamily(regs []Reg) {
	if m.sym == nil {
		panic("sim: DeclarePidFamily before DeclareSymmetric")
	}
	if len(regs) != m.sym.n {
		panic(fmt.Sprintf("sim: DeclarePidFamily of %d slots for %d processes", len(regs), m.sym.n))
	}
	fam := int32(len(m.sym.families))
	segs := make([]symSeg, len(regs))
	slotInit := func(r Reg) uint64 {
		return (m.cells[r.cell].init >> r.shift) & (symSeg{width: r.width}.mask())
	}
	for p, r := range regs {
		if r.width != regs[0].width {
			panic(fmt.Sprintf("sim: DeclarePidFamily slot widths differ (%d vs %d bits)", r.width, regs[0].width))
		}
		// Unwritten slots must be indistinguishable: relocation under a
		// permutation is unconditional, so unequal initial values would
		// let the remap fabricate a state the mirrored run cannot reach.
		if slotInit(r) != slotInit(regs[0]) {
			panic(fmt.Sprintf("sim: DeclarePidFamily slot initial values differ (%d vs %d)", slotInit(r), slotInit(regs[0])))
		}
		segs[p] = symSeg{cell: r.cell, shift: r.shift, width: r.width, family: fam, member: int32(p)}
		m.addSeg(segs[p])
	}
	m.sym.families = append(m.sym.families, segs)
}

// DeclarePidValued declares that the register view r holds a pid under
// the given encoding, so permuting pids rewrites its value (and the
// value of every recorded access to it). DeclareSymmetric must have been
// called first.
func (m *Memory) DeclarePidValued(r Reg, enc PidEnc) {
	if m.sym == nil {
		panic("sim: DeclarePidValued before DeclareSymmetric")
	}
	if enc != PidEncExact && enc != PidEncPlusOne {
		panic(fmt.Sprintf("sim: DeclarePidValued with encoding %d", enc))
	}
	m.addSeg(symSeg{cell: r.cell, shift: r.shift, width: r.width, enc: enc, family: -1})
}

func (m *Memory) addSeg(sg symSeg) {
	for _, old := range m.sym.byCell[sg.cell] {
		if old.mask()&sg.mask() != 0 {
			panic(fmt.Sprintf("sim: symmetry declarations overlap in cell %s", m.cells[sg.cell].name))
		}
	}
	m.sym.byCell[sg.cell] = append(m.sym.byCell[sg.cell], sg)
}

// viewKind classifies how a register view behaves under pid permutation.
type viewKind uint8

const (
	// viewNeutral: no pid-relevant bits; location and value are fixed.
	viewNeutral viewKind = iota
	// viewFamily: the view lies within one family member's slot; a
	// permutation relocates it to the image member's slot, value
	// unchanged.
	viewFamily
	// viewComposite: the view wholly contains pid-relevant segments in
	// place (a packed word read across pid-valued fields, or a whole
	// family packed into one word); a permutation rewrites the value,
	// location unchanged.
	viewComposite
	// viewOpaque: the view overlaps pid-relevant bits irregularly (e.g.
	// a partial read of a pid-valued field); its observations cannot be
	// remapped, and the checker must not collapse states containing it.
	viewOpaque
)

// ViewDesc is the permutation behaviour of one register view
// (cell, shift, width), resolved once by ResolveView and then applied to
// any number of recorded accesses via RemapLoc / RemapValue.
type ViewDesc struct {
	kind   viewKind
	family int32
	member int32
	off    uint8 // view offset within the family member's slot
	segs   []symSeg
}

// Opaque reports that accesses through this view cannot be remapped.
func (d ViewDesc) Opaque() bool { return d.kind == viewOpaque }

// ResolveView classifies the register view (cell, shift, width) under
// the symmetry group. The result depends only on the declarations, never
// on state, so callers may cache it per view.
func (s *SymSpec) ResolveView(cell int32, shift, width uint8) ViewDesc {
	view := symSeg{cell: cell, shift: shift, width: width}
	vmask := view.mask()
	var over []symSeg
	for _, sg := range s.byCell[cell] {
		if sg.mask()&vmask != 0 {
			over = append(over, sg)
		}
	}
	if len(over) == 0 {
		return ViewDesc{kind: viewNeutral}
	}
	// Wholly inside one family member's slot: the view relocates.
	if len(over) == 1 && over[0].family >= 0 && vmask&^over[0].mask() == 0 {
		return ViewDesc{kind: viewFamily, family: over[0].family, member: over[0].member, off: shift - over[0].shift}
	}
	// Composite: every overlapped segment lies wholly inside the view,
	// and for family segments the *entire* family does (so member bits
	// can permute within the view).
	for _, sg := range over {
		if sg.mask()&^vmask != 0 {
			return ViewDesc{kind: viewOpaque}
		}
		if sg.family >= 0 {
			for _, member := range s.families[sg.family] {
				if member.cell != cell || member.mask()&^vmask != 0 {
					return ViewDesc{kind: viewOpaque}
				}
			}
		}
	}
	return ViewDesc{kind: viewComposite, segs: over}
}

// RemapLoc returns the view's location under perm: family views move to
// the image member's slot, every other mappable view stays put.
func (s *SymSpec) RemapLoc(d ViewDesc, cell int32, shift uint8, perm []int) (int32, uint8) {
	if d.kind == viewFamily {
		t := s.families[d.family][perm[d.member]]
		return t.cell, t.shift + d.off
	}
	return cell, shift
}

// RemapValue rewrites a value WRITTEN through the view under perm.
// viewShift must be the view's original shift — segment positions are
// resolved relative to it. Family views and neutral views return v
// unchanged; composite views permute contained family-member bits and
// rewrite contained pid-valued fields. Written values are always
// remappable: the mirrored execution writes the remapped value by the
// symmetry claim. For values READ back out of the register use
// RemapValueChecked, which rejects pre-write ambiguity.
func (s *SymSpec) RemapValue(d ViewDesc, viewShift uint8, v uint64, perm []int) uint64 {
	if d.kind != viewComposite {
		return v
	}
	out := v
	for _, sg := range d.segs {
		out &^= sg.mask() >> viewShift
	}
	for _, sg := range d.segs {
		rel := sg.shift - viewShift
		bits := (v >> rel) & (sg.mask() >> sg.shift)
		if sg.family >= 0 {
			t := s.families[sg.family][perm[sg.member]]
			out |= bits << (t.shift - viewShift)
		} else {
			out |= sg.enc.remap(bits, perm) << rel
		}
	}
	return out
}

// RemapValueChecked rewrites a value OBSERVED through the view (a read
// or RMW return) under perm. ownWritten is the mask, in cell
// coordinates, of bits the observing process had itself written earlier
// in its run. An exact-encoded segment whose observed bits would change
// under the permutation is remappable only when the observer provably
// read a written value — its own prior write covers the segment —
// because an untouched register still holds its initial value in the
// mirrored execution. ok is false when that proof is unavailable; the
// caller must then fall back to the identity digest for the state.
func (s *SymSpec) RemapValueChecked(d ViewDesc, viewShift uint8, v uint64, ownWritten uint64, perm []int) (uint64, bool) {
	if d.kind != viewComposite {
		return v, true
	}
	out := v
	for _, sg := range d.segs {
		out &^= sg.mask() >> viewShift
	}
	for _, sg := range d.segs {
		rel := sg.shift - viewShift
		bits := (v >> rel) & (sg.mask() >> sg.shift)
		if sg.family >= 0 {
			t := s.families[sg.family][perm[sg.member]]
			out |= bits << (t.shift - viewShift)
			continue
		}
		mapped := sg.enc.remap(bits, perm)
		if sg.enc == PidEncExact && mapped != bits && ownWritten&sg.mask() == 0 {
			return 0, false
		}
		out |= mapped << rel
	}
	return out, true
}

// RemapCells writes the permuted image of the cell values src into dst
// (reusing dst's capacity) and returns it: family slots relocate to
// their image member's slot, pid-valued fields are rewritten under their
// encoding, all other bits stay put. written holds the mask of bits
// ever written during the run, per cell; an exact-encoded segment that
// was never written keeps its initial value (the mirrored execution
// never wrote it either). A nil written treats every bit as written.
func (s *SymSpec) RemapCells(dst, src, written []uint64, perm []int) []uint64 {
	dst = append(dst[:0], src...)
	for _, segs := range s.byCell {
		for _, sg := range segs {
			dst[sg.cell] &^= sg.mask()
		}
	}
	for _, segs := range s.byCell {
		for _, sg := range segs {
			bits := (src[sg.cell] >> sg.shift) & (sg.mask() >> sg.shift)
			switch {
			case sg.family >= 0:
				t := s.families[sg.family][perm[sg.member]]
				dst[t.cell] |= bits << t.shift
			case sg.enc == PidEncExact && written != nil && written[sg.cell]&sg.mask() == 0:
				dst[sg.cell] |= bits << sg.shift
			default:
				dst[sg.cell] |= sg.enc.remap(bits, perm) << sg.shift
			}
		}
	}
	return dst
}
