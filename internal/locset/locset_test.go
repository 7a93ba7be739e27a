package locset

import (
	"testing"
	"testing/quick"

	"mtpa/internal/ast"
	"mtpa/internal/types"
)

func testTable() *Table { return NewTable() }

func TestUnkIsIDZero(t *testing.T) {
	tab := testTable()
	if got := tab.Get(UnkID); got.Block.Kind != KindUnk {
		t.Fatalf("ID 0 should be unk, got %v", got)
	}
	if tab.NumLocSets() != 1 {
		t.Fatalf("fresh table has %d location sets, want 1", tab.NumLocSets())
	}
}

func TestInternDedup(t *testing.T) {
	tab := testTable()
	sym := &ast.Symbol{Kind: ast.SymGlobal, Name: "g", Type: types.PointerTo(types.IntType)}
	b := tab.SymBlock(sym)
	id1 := tab.Intern(b, 0, 0, true)
	id2 := tab.Intern(b, 0, 0, false)
	if id1 != id2 {
		t.Errorf("same triple interned twice: %d vs %d", id1, id2)
	}
	if !tab.Get(id1).Pointer {
		t.Errorf("pointer flag should be sticky")
	}
	id3 := tab.Intern(b, 8, 0, false)
	if id3 == id1 {
		t.Errorf("different offsets must intern differently")
	}
	if got := tab.LocSetsInBlock(b); len(got) != 2 {
		t.Errorf("LocSetsInBlock = %v, want 2 entries", got)
	}
}

func TestInternDerived(t *testing.T) {
	tab := testTable()
	sym := &ast.Symbol{Kind: ast.SymGlobal, Name: "a", Type: types.ArrayOf(types.IntType, 4)}
	b := tab.SymBlock(sym)
	scalar := tab.Intern(b, 0, 0, false)
	if got := tab.InternDerived(b, 0, 0, true); got != scalar {
		t.Fatalf("InternDerived of an existing set = %d, want %d", got, scalar)
	}
	if ls := tab.Get(scalar); ls.Pointer || ls.Derived {
		t.Errorf("InternDerived changed an existing set: %+v", ls)
	}
	elem := tab.InternDerived(b, 0, 4, false)
	if !tab.Get(elem).Derived {
		t.Errorf("a set only InternDerived named is not Derived")
	}
	if tab.Intern(b, 0, 4, false) != elem || tab.Get(elem).Derived {
		t.Errorf("Intern must name the derived set and clear its mark")
	}
}

func TestSymBlockIdentity(t *testing.T) {
	tab := testTable()
	owner := &ast.FuncDecl{Name: "f"}
	sym := &ast.Symbol{Kind: ast.SymLocal, Name: "x", Owner: owner, Type: types.IntType}
	b1 := tab.SymBlock(sym)
	b2 := tab.SymBlock(sym)
	if b1 != b2 {
		t.Error("SymBlock should intern per symbol")
	}
	if b1.Name != "f.x" || b1.Kind != KindLocal {
		t.Errorf("block = %s kind %s", b1.Name, b1.Kind)
	}
}

func TestGhostPools(t *testing.T) {
	tab := testTable()
	g0 := tab.Ghost(0, false)
	g1 := tab.Ghost(1, false)
	s0 := tab.Ghost(0, true)
	if g0 == g1 || g0 == s0 {
		t.Error("ghost pool entries must be distinct")
	}
	if tab.Ghost(0, false) != g0 {
		t.Error("ghost pool must be stable")
	}
	if !s0.Summary || g0.Summary {
		t.Error("summary flags wrong")
	}
}

func TestBump(t *testing.T) {
	tab := testTable()
	sym := &ast.Symbol{Kind: ast.SymGlobal, Name: "a", Type: types.ArrayOf(types.IntType, 10)}
	b := tab.SymBlock(sym)

	// Scalar + stride 8 → ⟨a, 0, 8⟩.
	s0 := tab.Intern(b, 0, 0, false)
	bumped := tab.Bump(s0, 8)
	ls := tab.Get(bumped)
	if ls.Offset != 0 || ls.Stride != 8 {
		t.Errorf("Bump(⟨a,0,0⟩,8) = ⟨%d,%d⟩, want ⟨0,8⟩", ls.Offset, ls.Stride)
	}
	// Field at offset 8 within stride-24 elements, bumped by 24: unchanged.
	f := tab.Intern(b, 8, 24, false)
	if got := tab.Bump(f, 24); tab.Get(got).Offset != 8 || tab.Get(got).Stride != 24 {
		t.Errorf("Bump(⟨a,8,24⟩,24) = %v", tab.Get(got))
	}
	// Bumping by a smaller granule coarsens the stride: gcd(24,8)=8.
	if got := tab.Bump(f, 8); tab.Get(got).Stride != 8 || tab.Get(got).Offset != 0 {
		t.Errorf("Bump(⟨a,8,24⟩,8) = %v, want ⟨0,8⟩", tab.Get(got))
	}
	// unk is inert.
	if tab.Bump(UnkID, 8) != UnkID {
		t.Error("Bump(unk) must be unk")
	}
	// Zero element size is inert.
	if tab.Bump(f, 0) != f {
		t.Error("Bump by 0 must be identity")
	}
}

func TestElem(t *testing.T) {
	tab := testTable()
	sym := &ast.Symbol{Kind: ast.SymGlobal, Name: "s", Type: types.IntType}
	b := tab.SymBlock(sym)
	base := tab.Intern(b, 0, 0, false)
	f := tab.Elem(base, 16, true)
	ls := tab.Get(f)
	if ls.Offset != 16 || ls.Stride != 0 || !ls.Pointer {
		t.Errorf("Elem = %v", ls)
	}
	// Field selection within a strided element reduces modulo the stride.
	arr := tab.Intern(b, 0, 24, false)
	f2 := tab.Elem(arr, 8, false)
	if got := tab.Get(f2); got.Offset != 8 || got.Stride != 24 {
		t.Errorf("Elem(⟨s,0,24⟩,8) = %v", got)
	}
	if tab.Elem(UnkID, 8, false) != UnkID {
		t.Error("Elem(unk) must be unk")
	}
}

func TestOverlap(t *testing.T) {
	tab := testTable()
	aSym := &ast.Symbol{Kind: ast.SymGlobal, Name: "a", Type: types.IntType}
	bSym := &ast.Symbol{Kind: ast.SymGlobal, Name: "b", Type: types.IntType}
	ab, bb := tab.SymBlock(aSym), tab.SymBlock(bSym)

	a0 := tab.Intern(ab, 0, 0, false)
	a8 := tab.Intern(ab, 8, 0, false)
	b0 := tab.Intern(bb, 0, 0, false)
	aStride := tab.Intern(ab, 0, 8, false)
	aOdd := tab.Intern(ab, 4, 8, false)

	tests := []struct {
		x, y ID
		want bool
	}{
		{a0, a0, true},
		{a0, a8, false},     // distinct scalars
		{a0, b0, false},     // different blocks
		{a0, aStride, true}, // 0 ∈ {0,8,16,...}
		{a8, aStride, true},
		{a0, aOdd, false}, // 0 ∉ {4,12,20,...}
		{aStride, aOdd, false},
		{a0, UnkID, true}, // unknown overlaps everything
	}
	for _, tt := range tests {
		if got := tab.Overlap(tt.x, tt.y); got != tt.want {
			t.Errorf("Overlap(%s, %s) = %v, want %v", tab.String(tt.x), tab.String(tt.y), got, tt.want)
		}
		if got := tab.Overlap(tt.y, tt.x); got != tt.want {
			t.Errorf("Overlap is not symmetric for (%s, %s)", tab.String(tt.x), tab.String(tt.y))
		}
	}
}

// Property: Overlap is symmetric and reflexive for arbitrary offsets and
// strides within one block.
func TestQuickOverlapSymmetric(t *testing.T) {
	tab := testTable()
	sym := &ast.Symbol{Kind: ast.SymGlobal, Name: "m", Type: types.IntType}
	b := tab.SymBlock(sym)
	f := func(o1, s1, o2, s2 uint8) bool {
		x := tab.Intern(b, int64(o1), int64(s1), false)
		y := tab.Intern(b, int64(o2), int64(s2), false)
		return tab.Overlap(x, y) == tab.Overlap(y, x) && tab.Overlap(x, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bump is idempotent for a fixed element size.
func TestQuickBumpIdempotent(t *testing.T) {
	tab := testTable()
	sym := &ast.Symbol{Kind: ast.SymGlobal, Name: "v", Type: types.IntType}
	b := tab.SymBlock(sym)
	f := func(off, stride uint8, elemRaw uint8) bool {
		elem := int64(elemRaw%32) + 1
		id := tab.Intern(b, int64(off), int64(stride), false)
		once := tab.Bump(id, elem)
		twice := tab.Bump(once, elem)
		return once == twice
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after Bump by elem, the resulting stride divides elem.
func TestQuickBumpStrideDividesElem(t *testing.T) {
	tab := testTable()
	sym := &ast.Symbol{Kind: ast.SymGlobal, Name: "w", Type: types.IntType}
	b := tab.SymBlock(sym)
	f := func(off, stride uint8, elemRaw uint8) bool {
		elem := int64(elemRaw%32) + 1
		id := tab.Intern(b, int64(off), int64(stride), false)
		ls := tab.Get(tab.Bump(id, elem))
		return ls.Stride > 0 && elem%ls.Stride == 0 && ls.Offset < ls.Stride
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
