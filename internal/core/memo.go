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
// now (in progress, or solved, committed or seeded this round), and the
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
// the context is. The speculation phase (phase.go) reads the shards of
// many contexts concurrently; that is safe because only the sequential
// sweep ever installs entries — speculative populations are buffered.
//
// Speculation discipline (see solve.go): a speculative executor only
// probes the shards; on a miss it falls through to the ordinary probing
// slow path, and populations plus hit/miss counter bumps are buffered
// in the speculation's specBuf and applied by replaySpec only if the
// speculation commits. A speculative solve additionally indexes its own
// buffered populations (specState.memoIdx) so in-solve revisits hit the
// memo just as the sequential solve they predict would. Stored graphs
// are Clone snapshots (shared, copy-on-write); hits hand out
// CloneShared copies, which never write the cached graph and are
// therefore safe under concurrent probes.

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
// the shard, not part of the in-shard key. Sharding keeps the memo maps
// small, lets a context's entries die with it, and — because the
// speculation phase (phase.go) only ever reads the shards — removes the
// one shared mutable map the old global memo would have been.
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

// memoRec is a buffered speculative population.
type memoRec struct {
	key   memoKey
	entry *memoEntry
}

// memoEnabled reports whether the call-site memo participates in this
// run. It requires the context cache: with that cache disabled every
// call re-solves its callee, which a memo hit would skip.
func (a *Analysis) memoEnabled() bool {
	return !a.opts.DisableCallMemo && !a.opts.DisableContextCache
}

// calleeFresh reports whether analyzeContext(e) would be a no-op right
// now — the precondition for a memo hit to skip it. A task speculation
// (phase.go) consumes frozen results, so for it every callee is fresh by
// assumption — the consumption is recorded as a version dependency and
// validated at commit, exactly like a direct analyzeContext consumption.
func (x *exec) calleeFresh(e *ctxEntry) bool {
	if s := x.spec; s != nil && s.phase {
		s.logDep(e)
		return true
	}
	return e.inProgress || e.doneRound == x.a.round
}

// probeCallMemo looks the call up in the memo. On a hit it returns the
// output triple (created edges still need the caller's ∪ t.E); the
// returned graphs are independently mutable snapshots. A speculative
// executor first consults its own buffered populations (a revisit
// within one speculative solve must hit just as the sequential solve it
// predicts would), then the calling context's shard — read-only, which
// is what makes concurrent probes of the shards safe.
func (x *exec) probeCallMemo(k memoKey, t *Triple) (*Triple, bool) {
	a := x.a
	if !a.memoEnabled() || k.ctx == nil {
		return nil, false
	}
	if s := x.spec; s != nil && s.memoIdx != nil {
		if tr, ok := x.scanMemoBucket(s.memoIdx[k], k, t); ok {
			return tr, true
		}
	}
	if tr, ok := x.scanMemoBucket(k.ctx.memo[callKey{call: k.call, fn: k.fn}], k, t); ok {
		return tr, true
	}
	x.countMemo(false)
	return nil, false
}

// scanMemoBucket applies the hit conditions to one bucket.
func (x *exec) scanMemoBucket(bucket []*memoEntry, k memoKey, t *Triple) (*Triple, bool) {
	a := x.a
	for _, e := range bucket {
		if e.round != a.round || !e.inC.Equal(t.C) || !e.inI.Equal(t.I) {
			continue
		}
		if e.callee.result.version != e.calleeVer || !x.calleeFresh(e.callee) {
			continue
		}
		x.countMemo(true)
		// A hit skips getContext, so the callee-context edge (harvested
		// into session summaries) is recorded here instead.
		x.recordCallee(k.ctx, e.callee)
		return &Triple{C: e.outC.CloneShared(), I: t.I, E: e.outE.CloneShared()}, true
	}
	return nil, false
}

// storeCallMemo records a just-computed call-site transfer. outC is the
// final post-call C graph; outE is the expanded created-edge graph
// before the caller's t.E union (t.E varies between revisits whose
// ⟨C, I⟩ key is unchanged, so it stays out of the cached value). Both
// must already be Clone snapshots. A speculative executor buffers the
// entry; replaySpec installs it on commit (a stale buffered entry is
// harmless — the version check rejects it at probe time).
func (x *exec) storeCallMemo(k memoKey, t *Triple, callee *ctxEntry, m *mapping, outC, outE *ptgraph.Graph) {
	a := x.a
	if !a.memoEnabled() || k.ctx == nil {
		return
	}
	inI := t.I
	if !a.seqFast {
		// Snapshot the I input. On the fast path t.I is the analysis-wide
		// empty graph: immutable by construction, so it is stored as-is —
		// Clone would write its copy-on-write mark, racing with concurrent
		// speculative stores of the same shared graph.
		inI = inI.Clone()
	}
	e := &memoEntry{
		inC: t.C.Clone(), inI: inI,
		round:  a.round,
		callee: callee, calleeVer: callee.result.version,
		outC: outC, outE: outE, m: m,
	}
	if s := x.spec; s != nil {
		s.buf.memos = append(s.buf.memos, memoRec{key: k, entry: e})
		if s.memoIdx == nil {
			s.memoIdx = map[memoKey][]*memoEntry{}
		}
		s.memoIdx[k] = append(s.memoIdx[k], e)
		return
	}
	a.installMemo(k, e)
}

// installMemo inserts an entry into its shard's bucket, replacing a
// stale (previous-round) or same-input entry rather than growing the
// bucket. Only the sequential sweep installs (speculations buffer), so
// the shards never see a concurrent write.
func (a *Analysis) installMemo(k memoKey, e *memoEntry) {
	owner := k.ctx
	if owner == nil {
		return
	}
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

// countMemo bumps the hit/miss counters (buffered under speculation so
// an aborted speculation leaves no trace).
func (x *exec) countMemo(hit bool) {
	if x.spec != nil {
		if hit {
			x.spec.buf.memoHits++
		} else {
			x.spec.buf.memoMisses++
		}
		return
	}
	if hit {
		x.a.memoHits++
	} else {
		x.a.memoMisses++
	}
}
