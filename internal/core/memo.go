// The call-site transfer memo (a reuse layer below the context cache of
// Definition 2): each call vertex caches, keyed on the exact incoming
// ⟨C, I⟩ graphs, the fully unmapped output graphs of callOne together
// with the mapping they were computed with — so a fixpoint revisit with
// unchanged inputs returns in O(1) instead of re-running reachability,
// mapping, projection, the callee lookup and expansion.
//
// A hit is only allowed to stand in for work that would have been a
// no-op: the entry must have been populated in the current round (a
// round restart invalidates every entry of the previous round), the
// callee context must be one analyzeContext would not re-solve right
// now (in progress, or solved or seeded this round), and the
// callee's result version must not have moved since the entry was
// stored (an in-progress recursive context can grow its result
// mid-round). Under those conditions the memoised output is
// content-identical to what the full path would rebuild, so counters,
// contexts, rounds, warnings and the final round's measurements are
// unaffected — the golden corpus is bit-identical with the memo on or
// off.
//
// The memo is sharded onto the calling context (ctxEntry.memo): every
// key names its caller, so each entry belongs to exactly one shard,
// shard maps stay small, and a context's entries are garbage the moment
// the context is. Stored graphs are Clone snapshots (shared,
// copy-on-write); hits hand out CloneShared copies, which never write
// the cached graph.

package core

import (
	"mtpa/internal/ir"
	"mtpa/internal/ptgraph"
)

// memoKey identifies one memoised call-site transfer: the call
// instruction, the resolved target (a function-pointer call has several)
// and the calling context (buildMapping consults ctx.ghostSrc, so the
// same call with the same graphs can still map differently in another
// context).
type memoKey struct {
	call *ir.Call
	fn   *ir.Func
	ctx  *ctxEntry
}

// callKey is memoKey without the calling context: the entries are
// sharded onto their calling context (ctxEntry.memo), so the context is
// the shard, not part of the in-shard key.
type callKey struct {
	call *ir.Call
	fn   *ir.Func
}

// memoEntry is one cached call-site transfer.
type memoEntry struct {
	inC, inI *ptgraph.Graph // snapshot of the call inputs (exact verify)
	round    int            // populated during this round; stale otherwise

	callee    *ctxEntry
	calleeVer uint64 // callee.result.version when the entry was stored

	outC *ptgraph.Graph // final C after the call (isolated and I included)
	outE *ptgraph.Graph // expanded created edges, before the ∪ t.E
	m    *mapping       // the name-space translation the outputs used
}

// memoEnabled reports whether the call-site memo participates in this
// run. It requires the context cache: with that cache disabled every
// call re-solves its callee, which a memo hit would skip.
func (a *Analysis) memoEnabled() bool {
	return !a.opts.DisableCallMemo && !a.opts.DisableContextCache
}

// probeCallMemo looks the call up in the memo. On a hit it returns the
// output triple (created edges still need the caller's ∪ t.E); the
// returned graphs are independently mutable snapshots. A hit requires
// the callee to be one analyzeContext would not re-solve right now: in
// progress, or solved or seeded this round.
func (x *exec) probeCallMemo(k memoKey, t *Triple) (*Triple, bool) {
	a := x.a
	if !a.memoEnabled() || k.ctx == nil {
		return nil, false
	}
	for _, e := range k.ctx.memo[callKey{call: k.call, fn: k.fn}] {
		if e.round != a.round || !e.inC.Equal(t.C) || !e.inI.Equal(t.I) {
			continue
		}
		c := e.callee
		if c.result.version != e.calleeVer || !(c.inProgress || c.doneRound == a.round) {
			continue
		}
		a.memoHits++
		// A hit skips getContext, so the callee-context edge (harvested
		// into session summaries) is recorded here instead.
		x.recordCallee(k.ctx, c)
		return &Triple{C: e.outC.CloneShared(), I: t.I, E: e.outE.CloneShared()}, true
	}
	a.memoMisses++
	return nil, false
}

// storeCallMemo records a just-computed call-site transfer. outC is the
// final post-call C graph; outE is the expanded created-edge graph
// before the caller's t.E union (t.E varies between revisits whose
// ⟨C, I⟩ key is unchanged, so it stays out of the cached value). Both
// must already be Clone snapshots.
func (x *exec) storeCallMemo(k memoKey, t *Triple, callee *ctxEntry, m *mapping, outC, outE *ptgraph.Graph) {
	a := x.a
	if !a.memoEnabled() || k.ctx == nil {
		return
	}
	inI := t.I
	if !a.seqFast {
		// Snapshot the I input. On the fast path t.I is the analysis-wide
		// empty graph, immutable by construction, so it is stored as-is.
		inI = inI.Clone()
	}
	e := &memoEntry{
		inC: t.C.Clone(), inI: inI,
		round:  a.round,
		callee: callee, calleeVer: callee.result.version,
		outC: outC, outE: outE, m: m,
	}
	// Replace a stale (previous-round) or same-input entry rather than
	// growing the bucket.
	owner := k.ctx
	if owner.memo == nil {
		owner.memo = map[callKey][]*memoEntry{}
	}
	ck := callKey{call: k.call, fn: k.fn}
	bucket := owner.memo[ck]
	for i, old := range bucket {
		if old.round != e.round || (old.inC.Equal(e.inC) && old.inI.Equal(e.inI)) {
			bucket[i] = e
			return
		}
	}
	owner.memo[ck] = append(bucket, e)
}
