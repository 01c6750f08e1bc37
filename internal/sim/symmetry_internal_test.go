package sim

import (
	"testing"

	"cfc/internal/opset"
)

// Unit tests for the pid-symmetry declaration surface: view
// classification, value/location/cell remapping, encoding edge cases,
// and the declaration-time panics that keep bad claims from silently
// producing an unsound reduction. The check package's tests prove the
// end-to-end property (canonical-key invariance under permutation);
// these pin the sim-level building blocks in isolation.

// symTestMem builds the canonical packed fixture for n = 2:
//
//	w (8 bits): [0:2) pid-valued exact   (a)
//	            [2:4) pid-valued plus-one (b)
//	            [4:5),[5:6) per-pid family bits (f0, f1)
//	            [6:8) undeclared (neutral padding)
//	z (4 bits): undeclared cell
func symTestMem(t *testing.T) (*Memory, Reg, Reg, Reg, []Reg, Reg) {
	t.Helper()
	m := NewMemory(opset.AtomicRegisters)
	w := m.Register("w", 8)
	z := m.Register("z", 4)
	a := m.Field(w, 0, 2)
	b := m.Field(w, 2, 2)
	fam := []Reg{m.Field(w, 4, 1), m.Field(w, 5, 1)}
	m.DeclareSymmetric(2)
	m.DeclarePidValued(a, PidEncExact)
	m.DeclarePidValued(b, PidEncPlusOne)
	m.DeclarePidFamily(fam)
	return m, w, a, b, fam, z
}

func TestPidEncRemapEdges(t *testing.T) {
	perm := []int{1, 2, 0} // pid p -> perm[p], n = 3
	cases := []struct {
		enc  PidEnc
		v    uint64
		want uint64
	}{
		{PidEncExact, 0, 1},
		{PidEncExact, 2, 0},
		{PidEncExact, 3, 3}, // out of range: pid-neutral, unchanged
		{PidEncExact, 99, 99},
		{PidEncPlusOne, 0, 0}, // "no process" sentinel, unchanged
		{PidEncPlusOne, 1, 2}, // pid 0 -> pid 1
		{PidEncPlusOne, 3, 1}, // pid 2 -> pid 0
		{PidEncPlusOne, 4, 4}, // out of range: unchanged
		{PidEncNone, 2, 2},    // no encoding: always unchanged
	}
	for _, c := range cases {
		if got := c.enc.remap(c.v, perm); got != c.want {
			t.Errorf("enc %d remap(%d) = %d, want %d", c.enc, c.v, got, c.want)
		}
	}
}

func TestResolveViewClassification(t *testing.T) {
	m, w, a, b, fam, z := symTestMem(t)
	spec := m.Symmetry()
	cases := []struct {
		name string
		r    Reg
		kind viewKind
	}{
		{"undeclared cell", z, viewNeutral},
		{"undeclared padding bits", m.Field(w, 6, 2), viewNeutral},
		{"family member slot", fam[0], viewFamily},
		{"second family member", fam[1], viewFamily},
		{"exact pid-valued field", a, viewComposite},
		{"plus-one pid-valued field", b, viewComposite},
		{"whole packed word", w, viewComposite},
		{"partial read of pid-valued field", m.Field(w, 0, 1), viewOpaque},
		{"straddles pid-valued boundary", m.Field(w, 3, 2), viewOpaque},
	}
	for _, c := range cases {
		d := spec.ResolveView(c.r.cell, c.r.shift, c.r.width)
		if d.kind != c.kind {
			t.Errorf("%s: kind = %d, want %d", c.name, d.kind, c.kind)
		}
	}

	// A whole-word view over a SPLIT family (slots in different cells)
	// must be opaque: the member bits cannot permute within the view.
	m2 := NewMemory(opset.AtomicRegisters)
	w2 := m2.Register("w2", 4)
	other := m2.Register("other", 1)
	m2.DeclareSymmetric(2)
	m2.DeclarePidFamily([]Reg{m2.Field(w2, 0, 1), other})
	if d := m2.Symmetry().ResolveView(w2.cell, w2.shift, w2.width); d.kind != viewOpaque {
		t.Errorf("word over split family: kind = %d, want opaque", d.kind)
	}
}

func TestRemapLocFamilyViews(t *testing.T) {
	m, _, _, _, fam, _ := symTestMem(t)
	spec := m.Symmetry()
	swap := []int{1, 0}
	d0 := spec.ResolveView(fam[0].cell, fam[0].shift, fam[0].width)
	cell, shift := spec.RemapLoc(d0, fam[0].cell, fam[0].shift, swap)
	if cell != fam[1].cell || shift != fam[1].shift {
		t.Errorf("fam[0] under swap -> (cell %d, shift %d), want fam[1] (cell %d, shift %d)",
			cell, shift, fam[1].cell, fam[1].shift)
	}
	// Identity keeps it in place.
	cell, shift = spec.RemapLoc(d0, fam[0].cell, fam[0].shift, []int{0, 1})
	if cell != fam[0].cell || shift != fam[0].shift {
		t.Errorf("fam[0] under identity moved to (cell %d, shift %d)", cell, shift)
	}
}

func TestRemapValueWholeWord(t *testing.T) {
	m, w, _, _, _, _ := symTestMem(t)
	spec := m.Symmetry()
	d := spec.ResolveView(w.cell, w.shift, w.width)
	swap := []int{1, 0}

	// a = 0 (pid 0), b = 2 (pid 1 under plus-one), fam = {f0: 1, f1: 0},
	// padding = 0b11. Under the swap: a -> 1, b -> 1, family bits swap,
	// padding untouched.
	v := uint64(0) | 2<<2 | 1<<4 | 0<<5 | 0b11<<6
	want := uint64(1) | 1<<2 | 0<<4 | 1<<5 | 0b11<<6
	if got := spec.RemapValue(d, w.shift, v, swap); got != want {
		t.Errorf("whole word remap = %#b, want %#b", got, want)
	}
	// Identity remap is the identity.
	if got := spec.RemapValue(d, w.shift, v, []int{0, 1}); got != v {
		t.Errorf("identity remap changed value: %#b -> %#b", v, got)
	}
	// Out-of-range pid values pass through: a = 3 is pid-neutral.
	v2 := uint64(3)
	if got := spec.RemapValue(d, w.shift, v2, swap); got != v2 {
		t.Errorf("neutral value rewritten: %#b -> %#b", v2, got)
	}
}

// TestRemapValueFieldView pins the viewShift handling: remapping a value
// observed through a narrow field view (not the whole word) must resolve
// segment positions relative to the view's own shift.
func TestRemapValueFieldView(t *testing.T) {
	m, _, _, b, _, _ := symTestMem(t)
	spec := m.Symmetry()
	d := spec.ResolveView(b.cell, b.shift, b.width)
	swap := []int{1, 0}
	if got := spec.RemapValue(d, b.shift, 1, swap); got != 2 {
		t.Errorf("field view plus-one remap(1) = %d, want 2", got)
	}
	if got := spec.RemapValue(d, b.shift, 0, swap); got != 0 {
		t.Errorf("field view plus-one remap(0) = %d, want 0", got)
	}
}

func TestRemapCellsRoundTrip(t *testing.T) {
	m, _, _, _, _, _ := symTestMem(t)
	spec := m.Symmetry()
	src := []uint64{0b11_01_10_01, 0b1011} // w, z
	swap := []int{1, 0}
	fwd := spec.RemapCells(nil, src, nil, swap)
	if fwd[1] != src[1] {
		t.Errorf("undeclared cell changed: %#b -> %#b", src[1], fwd[1])
	}
	back := spec.RemapCells(nil, fwd, nil, swap) // swap is its own inverse
	for i := range src {
		if back[i] != src[i] {
			t.Errorf("cell %d round trip: %#b -> %#b -> %#b", i, src[i], fwd[i], back[i])
		}
	}
	id := spec.RemapCells(nil, src, nil, []int{0, 1})
	for i := range src {
		if id[i] != src[i] {
			t.Errorf("cell %d changed under identity: %#b -> %#b", i, src[i], id[i])
		}
	}
}

// TestRemapCellsWrittenGating pins the exact-encoding initial-value
// rule: a zeroed register that nothing wrote still reads as pid 0 under
// PidEncExact, but the mirrored execution never wrote it either, so the
// remap must leave it alone until some write covers the segment.
func TestRemapCellsWrittenGating(t *testing.T) {
	m, w, a, b, _, _ := symTestMem(t)
	spec := m.Symmetry()
	swap := []int{1, 0}
	src := []uint64{0, 0} // nothing written anywhere: a = 0 reads as pid 0

	unwritten := spec.RemapCells(nil, src, []uint64{0, 0}, swap)
	if unwritten[0] != 0 {
		t.Errorf("unwritten exact segment remapped: %#b", unwritten[0])
	}
	written := spec.RemapCells(nil, src, []uint64{viewMaskOf(a), 0}, swap)
	if written[0] != 1 { // written pid 0 -> pid 1
		t.Errorf("written exact segment: %#b, want 1", written[0])
	}
	// Plus-one encoding needs no gating: 0 is the "no process" sentinel.
	src2 := []uint64{2 << 2, 0} // b holds pid 1
	gated := spec.RemapCells(nil, src2, []uint64{0, 0}, swap)
	if gated[0] != 1<<2 {
		t.Errorf("plus-one segment not remapped despite sentinel safety: %#b", gated[0])
	}
	_ = b
	_ = w
}

func viewMaskOf(r Reg) uint64 {
	return symSeg{shift: r.shift, width: r.width}.mask()
}

func TestRemapValueChecked(t *testing.T) {
	m, _, a, b, _, _ := symTestMem(t)
	spec := m.Symmetry()
	swap := []int{1, 0}
	da := spec.ResolveView(a.cell, a.shift, a.width)
	db := spec.ResolveView(b.cell, b.shift, b.width)

	// Reading 0 from the exact field without a prior own write is
	// ambiguous (initial value vs written pid 0): rejected.
	if _, ok := spec.RemapValueChecked(da, a.shift, 0, 0, swap); ok {
		t.Error("ambiguous pre-write exact read accepted")
	}
	// The same read after the observer wrote the segment is exact.
	if v, ok := spec.RemapValueChecked(da, a.shift, 0, viewMaskOf(a), swap); !ok || v != 1 {
		t.Errorf("post-write exact read: (%d, %v), want (1, true)", v, ok)
	}
	// A value the permutation fixes needs no proof: out-of-range 3.
	if v, ok := spec.RemapValueChecked(da, a.shift, 3, 0, swap); !ok || v != 3 {
		t.Errorf("neutral exact read: (%d, %v), want (3, true)", v, ok)
	}
	// Plus-one reads never need a proof.
	if v, ok := spec.RemapValueChecked(db, b.shift, 1, 0, swap); !ok || v != 2 {
		t.Errorf("plus-one read: (%d, %v), want (2, true)", v, ok)
	}
	if v, ok := spec.RemapValueChecked(db, b.shift, 0, 0, swap); !ok || v != 0 {
		t.Errorf("plus-one sentinel read: (%d, %v), want (0, true)", v, ok)
	}
}

func TestDeclarePidFamilyUnequalInitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unequal family slot initial values accepted")
		}
	}()
	m := NewMemory(opset.AtomicRegisters)
	f0 := m.BitInit("f0", 0)
	f1 := m.BitInit("f1", 1)
	m.DeclareSymmetric(2)
	m.DeclarePidFamily([]Reg{f0, f1})
}

func TestRemapCellsThreeCycle(t *testing.T) {
	// Three-process family across separate cells: applying a 3-cycle
	// three times must be the identity.
	m := NewMemory(opset.AtomicRegisters)
	slots := m.Registers("s", 4, 3)
	x := m.Register("x", 2)
	m.DeclareSymmetric(3)
	m.DeclarePidFamily(slots)
	m.DeclarePidValued(x, PidEncExact)
	spec := m.Symmetry()
	src := []uint64{5, 9, 12, 2} // s[0..2], x holding pid 2
	cyc := []int{1, 2, 0}
	cur := append([]uint64(nil), src...)
	for i := 0; i < 3; i++ {
		cur = spec.RemapCells(nil, cur, nil, cyc)
	}
	for i := range src {
		if cur[i] != src[i] {
			t.Errorf("cell %d after cycle^3: %d, want %d", i, cur[i], src[i])
		}
	}
	// One application relocates slot 0's value to slot 1 and rewrites x.
	one := spec.RemapCells(nil, src, nil, cyc)
	if one[1] != src[0] || one[2] != src[1] || one[0] != src[2] {
		t.Errorf("slots after one cycle: %v, want rotation of %v", one[:3], src[:3])
	}
	if one[3] != 0 { // pid 2 -> cyc[2] = 0
		t.Errorf("x after one cycle: %d, want 0", one[3])
	}
}

func TestSymmetryDeclarationPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("family before DeclareSymmetric", func() {
		m := NewMemory(opset.AtomicRegisters)
		m.DeclarePidFamily(m.Bits("f", 2))
	})
	expectPanic("pid-valued before DeclareSymmetric", func() {
		m := NewMemory(opset.AtomicRegisters)
		m.DeclarePidValued(m.Register("x", 2), PidEncExact)
	})
	expectPanic("slot count mismatch", func() {
		m := NewMemory(opset.AtomicRegisters)
		m.DeclareSymmetric(3)
		m.DeclarePidFamily(m.Bits("f", 2))
	})
	expectPanic("slot width mismatch", func() {
		m := NewMemory(opset.AtomicRegisters)
		m.DeclareSymmetric(2)
		m.DeclarePidFamily([]Reg{m.Bit("f0"), m.Register("f1", 2)})
	})
	expectPanic("overlapping declarations", func() {
		m := NewMemory(opset.AtomicRegisters)
		x := m.Register("x", 4)
		m.DeclareSymmetric(2)
		m.DeclarePidValued(x, PidEncExact)
		m.DeclarePidValued(m.Field(x, 0, 2), PidEncExact)
	})
	expectPanic("conflicting process counts", func() {
		m := NewMemory(opset.AtomicRegisters)
		m.DeclareSymmetric(2)
		m.DeclareSymmetric(3)
	})
	expectPanic("bad encoding", func() {
		m := NewMemory(opset.AtomicRegisters)
		m.DeclareSymmetric(2)
		m.DeclarePidValued(m.Register("x", 2), PidEncNone)
	})
	expectPanic("non-positive process count", func() {
		m := NewMemory(opset.AtomicRegisters)
		m.DeclareSymmetric(0)
	})
}

func TestSymmetryDeclarationLifecycle(t *testing.T) {
	m := NewMemory(opset.AtomicRegisters)
	if m.Symmetry() != nil {
		t.Fatal("fresh memory reports a symmetry spec")
	}
	m.DeclareSymmetric(2)
	m.DeclareSymmetric(2) // idempotent for the same n
	spec := m.Symmetry()
	if spec == nil || spec.NumPids() != 2 {
		t.Fatalf("spec = %+v, want n = 2", spec)
	}
	m.ClearSymmetry()
	if m.Symmetry() != nil {
		t.Fatal("ClearSymmetry left a spec behind")
	}
}
