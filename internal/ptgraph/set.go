// Immutable, hash-consed location-set sets. Every Set is a handle to a
// canonical, interned sorted slice of location-set IDs: two sets with the
// same elements are the same pointer, so equality is a pointer comparison,
// hashes are precomputed, and sets are shared freely between graphs without
// copying. The intern table is global and lock-striped so that independent
// analyses (e.g. the parallel corpus driver) can run concurrently.

package ptgraph

import (
	"slices"
	"sort"
	"sync"

	"mtpa/internal/locset"
)

// setData is the interned payload of a Set. Instances are unique per
// element slice and immutable after construction.
type setData struct {
	ids  []locset.ID // sorted ascending, no duplicates, never empty
	hash uint64
}

// Set is an immutable, hash-consed set of location-set IDs. The zero value
// is the empty set. Sets with equal elements are pointer-identical, so ==
// on the handle (or Equal) is full set equality.
type Set struct{ d *setData }

// mix64 is the splitmix64 finalizer, used to build all hashes in this
// package.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashIDs(ids []locset.ID) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, id := range ids {
		h = mix64(h ^ uint64(uint32(id)))
	}
	return h
}

// The intern table: striped by hash so concurrent analyses contend on
// different shards.
const setShards = 64

type setShard struct {
	mu sync.RWMutex
	m  map[uint64][]*setData
}

var setTable [setShards]*setShard

func init() {
	for i := range setTable {
		setTable[i] = &setShard{m: map[uint64][]*setData{}}
	}
}

func equalIDs(a, b []locset.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if b[i] != x {
			return false
		}
	}
	return true
}

// intern returns the canonical Set for ids, which must be sorted and
// duplicate-free. The slice is copied if a new entry is created, so callers
// may reuse scratch buffers.
func intern(ids []locset.ID) Set {
	if len(ids) == 0 {
		return Set{}
	}
	h := hashIDs(ids)
	sh := setTable[h&(setShards-1)]
	sh.mu.RLock()
	for _, d := range sh.m[h] {
		if equalIDs(d.ids, ids) {
			sh.mu.RUnlock()
			return Set{d}
		}
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, d := range sh.m[h] {
		if equalIDs(d.ids, ids) {
			return Set{d}
		}
	}
	d := &setData{ids: append([]locset.ID(nil), ids...), hash: h}
	sh.m[h] = append(sh.m[h], d)
	return Set{d}
}

// NewSet builds the canonical set of the given IDs.
func NewSet(ids ...locset.ID) Set {
	switch len(ids) {
	case 0:
		return Set{}
	case 1:
		return intern(ids)
	}
	sorted := append([]locset.ID(nil), ids...)
	slices.Sort(sorted)
	return intern(slices.Compact(sorted))
}

// Len returns the number of elements.
func (s Set) Len() int {
	if s.d == nil {
		return 0
	}
	return len(s.d.ids)
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool { return s.d == nil }

// Hash returns the set's precomputed hash (0 for the empty set).
func (s Set) Hash() uint64 {
	if s.d == nil {
		return 0
	}
	return s.d.hash
}

// Equal reports set equality — a pointer comparison, by hash-consing.
func (s Set) Equal(other Set) bool { return s.d == other.d }

// Has reports membership (binary search).
func (s Set) Has(id locset.ID) bool {
	if s.d == nil {
		return false
	}
	ids := s.d.ids
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	return i < len(ids) && ids[i] == id
}

// IDs returns the sorted elements. The slice is shared canonical storage:
// callers must not modify it.
func (s Set) IDs() []locset.ID {
	if s.d == nil {
		return nil
	}
	return s.d.ids
}

// Sorted returns a fresh copy of the sorted elements, safe to modify.
func (s Set) Sorted() []locset.ID {
	if s.d == nil {
		return nil
	}
	return append([]locset.ID(nil), s.d.ids...)
}

// With returns the set s ∪ {id}; s itself when id is already present.
func (s Set) With(id locset.ID) Set {
	if s.d == nil {
		return intern([]locset.ID{id})
	}
	ids := s.d.ids
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return s
	}
	merged := make([]locset.ID, 0, len(ids)+1)
	merged = append(merged, ids[:i]...)
	merged = append(merged, id)
	merged = append(merged, ids[i:]...)
	return intern(merged)
}

// UnionSet returns s ∪ other. When one operand contains the other, that
// operand's canonical handle is returned unchanged.
func (s Set) UnionSet(other Set) Set {
	if s.d == other.d || other.d == nil {
		return s
	}
	if s.d == nil {
		return other
	}
	a, b := s.d.ids, other.d.ids
	merged := make([]locset.ID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			merged = append(merged, a[i])
			i++
		case a[i] > b[j]:
			merged = append(merged, b[j])
			j++
		default:
			merged = append(merged, a[i])
			i++
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	if len(merged) == len(a) {
		return s
	}
	if len(merged) == len(b) {
		return other
	}
	return intern(merged)
}

// MinusSet returns s \ other; s itself when the sets are disjoint.
func (s Set) MinusSet(other Set) Set {
	if s.d == nil || other.d == nil {
		return s
	}
	if s.d == other.d {
		return Set{}
	}
	a, b := s.d.ids, other.d.ids
	kept := make([]locset.ID, 0, len(a))
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j < len(b) && b[j] == a[i] {
			i++
			continue
		}
		kept = append(kept, a[i])
		i++
	}
	if len(kept) == len(a) {
		return s
	}
	return intern(kept)
}

// IntersectSet returns s ∩ other.
func (s Set) IntersectSet(other Set) Set {
	if s.d == other.d {
		return s
	}
	if s.d == nil || other.d == nil {
		return Set{}
	}
	a, b := s.d.ids, other.d.ids
	kept := make([]locset.ID, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			kept = append(kept, a[i])
			i++
			j++
		}
	}
	if len(kept) == len(a) {
		return s
	}
	if len(kept) == len(b) {
		return other
	}
	return intern(kept)
}

// SubsetOf reports s ⊆ other.
func (s Set) SubsetOf(other Set) bool {
	if s.d == nil || s.d == other.d {
		return true
	}
	if other.d == nil || len(s.d.ids) > len(other.d.ids) {
		return false
	}
	a, b := s.d.ids, other.d.ids
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// SetBuilder accumulates IDs and interns the resulting set once. Use it to
// assemble a set from multiple sources without intermediate interning.
type SetBuilder struct {
	ids []locset.ID
}

// Add appends one ID (duplicates are fine; Build dedups).
func (b *SetBuilder) Add(id locset.ID) { b.ids = append(b.ids, id) }

// AddSet appends every element of s.
func (b *SetBuilder) AddSet(s Set) {
	if s.d != nil {
		b.ids = append(b.ids, s.d.ids...)
	}
}

// Empty reports whether nothing has been added.
func (b *SetBuilder) Empty() bool { return len(b.ids) == 0 }

// Build interns the accumulated set and resets the builder.
func (b *SetBuilder) Build() Set {
	if len(b.ids) == 0 {
		return Set{}
	}
	slices.Sort(b.ids)
	s := intern(slices.Compact(b.ids))
	b.ids = b.ids[:0]
	return s
}

// InternedSetCount returns the number of distinct sets in the global intern
// table (diagnostics; the table grows monotonically for the process
// lifetime).
func InternedSetCount() int {
	n := 0
	for _, sh := range setTable {
		sh.mu.RLock()
		for _, bucket := range sh.m {
			n += len(bucket)
		}
		sh.mu.RUnlock()
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
