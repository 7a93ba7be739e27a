// Package locset implements location sets, the abstract memory locations of
// the analysis (§3.1).
//
// A location set is a triple ⟨name, offset, stride⟩: a memory block name, a
// byte offset within the block, and a stride characterising recurring
// structure. ⟨n, o, s⟩ denotes the locations {o + i·s | i ∈ ℕ} within block
// n. Scalars are ⟨v,0,0⟩; struct fields ⟨s,f,0⟩; array elements ⟨a,0,esz⟩;
// fields of array-of-struct elements ⟨a,f,esz⟩. Each heap allocation site
// has its own block name. The special location set unk represents the
// unknown memory location; all pointers initially point to unk,
// dereferencing unk yields unk, and stores through unk are ignored after a
// warning.
package locset

import (
	"fmt"

	"mtpa/internal/ast"
	"mtpa/internal/errs"
	"mtpa/internal/types"
)

// ID is the dense index of an interned location set within a Table.
type ID int32

// UnkID is the ID of the unknown location set in every Table.
const UnkID ID = 0

// BlockKind classifies a memory block.
type BlockKind int

// Memory block kinds.
const (
	KindUnk           BlockKind = iota // the unknown memory block
	KindGlobal                         // shared global variable
	KindPrivateGlobal                  // thread-private global variable (§3.9)
	KindLocal                          // function local variable
	KindParam                          // formal parameter
	KindTemp                           // compiler temporary (incl. actual-parameter locsets)
	KindRet                            // procedure return-value locset r_p
	KindHeap                           // dynamic allocation site
	KindString                         // string literal storage
	KindFunc                           // function (target of function pointers)
	KindGhost                          // ghost block standing for caller locals/formals (§3.10)
)

func (k BlockKind) String() string {
	switch k {
	case KindUnk:
		return "unk"
	case KindGlobal:
		return "global"
	case KindPrivateGlobal:
		return "private"
	case KindLocal:
		return "local"
	case KindParam:
		return "param"
	case KindTemp:
		return "temp"
	case KindRet:
		return "ret"
	case KindHeap:
		return "heap"
	case KindString:
		return "string"
	case KindFunc:
		return "func"
	case KindGhost:
		return "ghost"
	}
	return fmt.Sprintf("BlockKind(%d)", int(k))
}

// Block is a named memory block. Two location sets in different blocks are
// assumed disjoint (valid when programs respect array bounds).
type Block struct {
	ID   int
	Kind BlockKind
	Name string
	// Type is the content type of the block (nil for unk, ghosts and
	// functions).
	Type *types.Type
	// Sym is set for global/private/local/param blocks.
	Sym *ast.Symbol
	// Fn is the owning function for locals, params, temps and ret blocks,
	// and the designated function for KindFunc blocks.
	Fn *ast.FuncDecl
	// Site is the allocation-site index for heap blocks.
	Site int
	// GhostIdx is the canonical ghost number within a context.
	GhostIdx int
	// Summary marks a ghost produced by merging multiple ghosts that stand
	// for the same actual location set (§3.10.3); summary ghosts represent
	// more than one concrete location and never receive strong updates.
	Summary bool
}

// IsHeap reports whether the block is a dynamic allocation site.
func (b *Block) IsHeap() bool { return b.Kind == KindHeap }

// String renders the block name.
func (b *Block) String() string { return b.Name }

// LocSet is the interned data of a location set.
type LocSet struct {
	Block  *Block
	Offset int64
	Stride int64
	// Pointer records whether values stored at this location set may be
	// pointers (used for L×{unk} initialisation and the Table 1 counts).
	Pointer bool
	// Derived marks a location set only InternDerived has named; it stays
	// out of the Table 1 counts until Intern names it too.
	Derived bool
}

// String renders the location set as ⟨name,offset,stride⟩, abbreviating
// scalars to the bare name.
func (l LocSet) String() string {
	if l.Offset == 0 && l.Stride == 0 {
		return l.Block.Name
	}
	return fmt.Sprintf("%s<%d,%d>", l.Block.Name, l.Offset, l.Stride)
}

type key struct {
	block  int
	offset int64
	stride int64
}

// Table interns blocks and location sets for one analysed program. Ghost
// blocks are pooled globally and shared across analysis contexts: contexts
// number their ghosts canonically, so equal contexts reuse the same IDs and
// the context cache can compare graphs directly.
type Table struct {
	blocks    []*Block
	sets      []LocSet
	index     map[key]ID
	blockSets map[int][]ID

	symBlocks   map[*ast.Symbol]*Block
	heapBlocks  map[int]*Block
	strBlocks   map[int]*Block
	funcBlocks  map[*ast.FuncDecl]*Block
	retBlocks   map[*ast.FuncDecl]*Block
	ghostPool   []*Block // by ghost index
	summaryPool []*Block
	tempCount   map[*ast.FuncDecl]int
}

// NewTable creates a table containing only the unknown location set.
func NewTable() *Table {
	t := &Table{
		index:      map[key]ID{},
		blockSets:  map[int][]ID{},
		symBlocks:  map[*ast.Symbol]*Block{},
		heapBlocks: map[int]*Block{},
		strBlocks:  map[int]*Block{},
		funcBlocks: map[*ast.FuncDecl]*Block{},
		retBlocks:  map[*ast.FuncDecl]*Block{},
		tempCount:  map[*ast.FuncDecl]int{},
	}
	unkBlock := t.newBlock(KindUnk, "unk")
	id := t.Intern(unkBlock, 0, 0, true)
	if id != UnkID {
		panic(errs.ICE("", "locset: unk must be ID 0, got %d", id))
	}
	return t
}

func (t *Table) newBlock(kind BlockKind, name string) *Block {
	b := &Block{ID: len(t.blocks), Kind: kind, Name: name}
	t.blocks = append(t.blocks, b)
	return b
}

// NumLocSets returns the number of interned location sets.
func (t *Table) NumLocSets() int { return len(t.sets) }

// NumBlocks returns the number of memory blocks.
func (t *Table) NumBlocks() int { return len(t.blocks) }

// Get returns the location set for an ID.
func (t *Table) Get(id ID) LocSet { return t.sets[id] }

// IsTemp reports whether a location set lives in a compiler-generated
// block — a temporary or a procedure return slot — which renderings of
// points-to graphs for people hide.
func (t *Table) IsTemp(id ID) bool {
	k := t.sets[id].Block.Kind
	return k == KindTemp || k == KindRet
}

// Blocks returns all blocks (do not modify).
func (t *Table) Blocks() []*Block { return t.blocks }

// Intern returns the ID for ⟨block, offset, stride⟩, creating it if needed.
// The pointer flag is sticky: once a location set is known to hold
// pointers it stays pointer-bearing.
func (t *Table) Intern(b *Block, offset, stride int64, pointer bool) ID {
	k := key{block: b.ID, offset: offset, stride: stride}
	if id, ok := t.index[k]; ok {
		if pointer && !t.sets[id].Pointer {
			t.sets[id].Pointer = true
		}
		if t.sets[id].Derived {
			t.sets[id].Derived = false
		}
		return id
	}
	id := ID(len(t.sets))
	t.sets = append(t.sets, LocSet{Block: b, Offset: offset, Stride: stride, Pointer: pointer})
	t.index[k] = id
	t.blockSets[b.ID] = append(t.blockSets[b.ID], id)
	return id
}

// InternDerived is Intern for a location set that only restates what
// another one stands for, such as a ghost location set's actual location
// set (core's ghost expansion for Table 4). It never changes an existing
// location set, and it marks one it creates Derived, which keeps it out
// of Table 1's counts: those count what the analysis itself named.
func (t *Table) InternDerived(b *Block, offset, stride int64, pointer bool) ID {
	if id, ok := t.index[key{block: b.ID, offset: offset, stride: stride}]; ok {
		return id
	}
	id := t.Intern(b, offset, stride, pointer)
	t.sets[id].Derived = true
	return id
}

// LocSetsInBlock returns every interned location set within block b
// (do not modify the returned slice).
func (t *Table) LocSetsInBlock(b *Block) []ID { return t.blockSets[b.ID] }

// SymBlock returns the memory block for a variable symbol.
func (t *Table) SymBlock(sym *ast.Symbol) *Block {
	if b, ok := t.symBlocks[sym]; ok {
		return b
	}
	var kind BlockKind
	name := sym.Name
	switch sym.Kind {
	case ast.SymGlobal:
		kind = KindGlobal
	case ast.SymPrivateGlobal:
		kind = KindPrivateGlobal
	case ast.SymLocal:
		kind = KindLocal
		name = sym.Owner.Name + "." + sym.Name
	case ast.SymParam:
		kind = KindParam
		name = sym.Owner.Name + "." + sym.Name
	default:
		panic(errs.ICE("", "locset: SymBlock on function symbol %s", sym.Name))
	}
	b := t.newBlock(kind, name)
	b.Type = sym.Type
	b.Sym = sym
	b.Fn = sym.Owner
	t.symBlocks[sym] = b
	return b
}

// HeapBlock returns the block for an allocation site.
func (t *Table) HeapBlock(site int, siteType *types.Type, where string) *Block {
	if b, ok := t.heapBlocks[site]; ok {
		return b
	}
	b := t.newBlock(KindHeap, fmt.Sprintf("heap@%s#%d", where, site))
	b.Type = siteType
	b.Site = site
	t.heapBlocks[site] = b
	return b
}

// StringBlock returns the block for the i-th string literal.
func (t *Table) StringBlock(i int) *Block {
	if b, ok := t.strBlocks[i]; ok {
		return b
	}
	b := t.newBlock(KindString, fmt.Sprintf("strlit#%d", i))
	b.Type = types.ArrayOf(types.CharType, 0)
	b.Site = i
	t.strBlocks[i] = b
	return b
}

// FuncBlock returns the block representing a function (function pointers
// point at these blocks).
func (t *Table) FuncBlock(fn *ast.FuncDecl) *Block {
	if b, ok := t.funcBlocks[fn]; ok {
		return b
	}
	b := t.newBlock(KindFunc, "fn:"+fn.Name)
	b.Fn = fn
	t.funcBlocks[fn] = b
	return b
}

// FuncID returns the location set ID for a function block.
func (t *Table) FuncID(fn *ast.FuncDecl) ID {
	return t.Intern(t.FuncBlock(fn), 0, 0, false)
}

// RetBlock returns the block for a procedure's return-value location set
// r_p (§3.10).
func (t *Table) RetBlock(fn *ast.FuncDecl) *Block {
	if b, ok := t.retBlocks[fn]; ok {
		return b
	}
	b := t.newBlock(KindRet, "ret:"+fn.Name)
	b.Type = fn.Result
	b.Fn = fn
	t.retBlocks[fn] = b
	return b
}

// NewTemp creates a fresh compiler temporary block in fn.
func (t *Table) NewTemp(fn *ast.FuncDecl, typ *types.Type) *Block {
	n := t.tempCount[fn]
	t.tempCount[fn] = n + 1
	b := t.newBlock(KindTemp, fmt.Sprintf("%s.t%d", fn.Name, n))
	b.Type = typ
	b.Fn = fn
	return b
}

// Ghost returns the pooled ghost block with the given canonical index.
// Summary ghosts (merged, representing several concrete blocks) form a
// separate pool and never receive strong updates.
func (t *Table) Ghost(idx int, summary bool) *Block {
	pool := &t.ghostPool
	if summary {
		pool = &t.summaryPool
	}
	for len(*pool) <= idx {
		name := fmt.Sprintf("ghost#%d", len(*pool))
		if summary {
			name = fmt.Sprintf("sghost#%d", len(*pool))
		}
		b := t.newBlock(KindGhost, name)
		b.GhostIdx = len(*pool)
		b.Summary = summary
		*pool = append(*pool, b)
	}
	return (*pool)[idx]
}

// Unk returns the unknown location set's block.
func (t *Table) Unk() *Block { return t.sets[UnkID].Block }

// ---------------------------------------------------------------------------
// Location-set arithmetic

// gcd64 returns the non-negative greatest common divisor, with gcd(0,x)=x.
func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Bump returns the location set reached from ls by pointer arithmetic with
// element size elem: the stride becomes gcd(stride, elem) and the offset is
// reduced modulo the new stride, conservatively denoting every element the
// moving pointer could reach.
func (t *Table) Bump(id ID, elem int64) ID {
	if id == UnkID || elem == 0 {
		return id
	}
	ls := t.sets[id]
	s := gcd64(ls.Stride, elem)
	o := ls.Offset
	if s > 0 {
		o = ((o % s) + s) % s
	}
	if o == ls.Offset && s == ls.Stride {
		return id
	}
	return t.Intern(ls.Block, o, s, ls.Pointer)
}

// Elem returns the location set for *(&block + offset within element)
// lookups: given a base location set and a field offset within the pointed
// element, the resulting location set.
//
// Dereferencing a pointer to ⟨b,o,s⟩ and then selecting field off with
// stride fs yields ⟨b, o+off (mod s if s>0), gcd(s, fs)⟩ — but the common
// cases used by lowering are simpler and handled by Field and Index below.
func (t *Table) Elem(id ID, off int64, pointer bool) ID {
	if id == UnkID {
		return UnkID
	}
	ls := t.sets[id]
	no := ls.Offset + off
	if ls.Stride > 0 {
		no = ((no % ls.Stride) + ls.Stride) % ls.Stride
		// Keep offsets canonical under the stride but preserve field
		// distinction when the struct is larger than the stride is not
		// possible; offsets are always reduced mod stride.
	}
	return t.Intern(ls.Block, no, ls.Stride, pointer)
}

// Index returns the location set for elements of an array starting at the
// given location set with the given element size: ⟨b, o mod esz', gcd(s,esz)⟩.
func (t *Table) Index(id ID, esz int64, pointer bool) ID {
	if id == UnkID {
		return UnkID
	}
	if esz == 0 {
		return id
	}
	ls := t.sets[id]
	s := gcd64(ls.Stride, esz)
	o := ls.Offset
	if s > 0 {
		o = ((o % s) + s) % s
	}
	return t.Intern(ls.Block, o, s, pointer)
}

// Overlap reports whether two location sets may denote a common concrete
// memory location. Location sets in different blocks are disjoint; within a
// block, ⟨o1,s1⟩ and ⟨o2,s2⟩ overlap iff (o1−o2) is divisible by
// gcd(s1,s2), where gcd(0,0)=0 requires o1==o2. The unknown location
// overlaps everything.
func (t *Table) Overlap(a, b ID) bool {
	if a == b {
		return true
	}
	if a == UnkID || b == UnkID {
		return true
	}
	la, lb := t.sets[a], t.sets[b]
	if la.Block != lb.Block {
		return false
	}
	g := gcd64(la.Stride, lb.Stride)
	d := la.Offset - lb.Offset
	if d < 0 {
		d = -d
	}
	if g == 0 {
		return d == 0
	}
	return d%g == 0
}

// String renders the location set with the given ID.
func (t *Table) String(id ID) string { return t.sets[id].String() }

// BlockSet is a reusable set of blocks backed by a block-ID-indexed
// bitmap plus an insertion-ordered member list. It replaces per-use
// map[*Block]bool scratch sets on hot paths: Reset clears only the bits
// of the previous members, so a long-lived BlockSet allocates at most
// once per table growth. The zero value is ready to use.
type BlockSet struct {
	bits []bool
	list []*Block
}

// Reset empties the set and ensures capacity for block IDs below n
// (pass Table.NumBlocks()).
func (s *BlockSet) Reset(n int) {
	for _, b := range s.list {
		s.bits[b.ID] = false
	}
	s.list = s.list[:0]
	if n > len(s.bits) {
		s.bits = make([]bool, n)
	}
}

// Add inserts b and reports whether it was absent.
func (s *BlockSet) Add(b *Block) bool {
	if s.bits[b.ID] {
		return false
	}
	s.bits[b.ID] = true
	s.list = append(s.list, b)
	return true
}

// Has reports membership.
func (s *BlockSet) Has(b *Block) bool { return s.bits[b.ID] }

// Len returns the number of members.
func (s *BlockSet) Len() int { return len(s.list) }

// At returns the i-th member in insertion order. Members appended while
// iterating by index are visited too, so a worklist closure can scan the
// list it is growing.
func (s *BlockSet) At(i int) *Block { return s.list[i] }

// Blocks returns the members in insertion order (valid until the next
// Reset; do not modify).
func (s *BlockSet) Blocks() []*Block { return s.list }
