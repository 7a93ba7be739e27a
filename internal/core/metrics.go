// Measurement collection for the paper's evaluation (§4): per-access
// location-set counts in every analysis context (Tables 2 and 4, Figures 8
// and 9) and parallel-construct convergence data (Table 3). Every solve in
// a context attaches a dataflow.Recorder that snapshots the solver's
// per-vertex facts, and every par construct records its convergence. The
// store is reset at the start of each round, so what survives is the
// final round's: the round that changed nothing, whose solves all ran
// against the fixed point. The measurements are then *derived* from those
// facts: the deref set of every measured access is recomputed from the
// fact before its vertex, and with Options.RecordPoints the full ⟨C,I,E⟩
// triple at every program point is reconstructed by replaying the
// vertex's instructions from the fact. Because facts overwrite per
// (context, vertex) exactly like transfer-time sampling would, the derived
// measurements are bit-identical to measurements taken during the solve.

package core

import (
	"fmt"
	"sort"

	"mtpa/internal/errs"
	"mtpa/internal/ir"
	"mtpa/internal/locset"
	"mtpa/internal/pfg"
	"mtpa/internal/ptgraph"
)

// AccessSample is the measurement for one pointer-dereferencing load or
// store instruction in one analysis context: the location sets that
// represent the accessed memory location.
type AccessSample struct {
	AccID int
	CtxID int
	Locs  []locset.ID // sorted

	// expanded is the ghost expansion of Locs (Result.ExpandGhosts), set
	// when the run ends if Locs holds a ghost location set.
	expanded []locset.ID
}

// Count returns the number of location sets required to represent the
// accessed location, excluding unk (at least 1), and whether the
// dereferenced pointer is potentially uninitialised (unk present).
func (s *AccessSample) Count() (n int, uninit bool) {
	n = len(s.Locs)
	for _, l := range s.Locs {
		if l == locset.UnkID {
			uninit = true
			n--
		}
	}
	if n < 1 {
		n = 1
	}
	return n, uninit
}

// ParSample is the measurement for one parallel-construct analysis: the
// number of fixed-point iterations and the number of threads analysed.
type ParSample struct {
	NodeID     int
	FnName     string
	CtxID      int
	Iterations int
	Threads    int
}

type accKey struct {
	acc int
	ctx int
}

// PointKey identifies a program point: before instruction Idx of node Node
// (Idx == len(instrs) is the point after the last instruction) in analysis
// context Ctx.
type PointKey struct {
	Node *ir.Node
	Idx  int
	Ctx  int
}

type parKey struct {
	node *ir.Node
	ctx  int
}

// FactKey identifies one recorded solver fact: the triple before vertex V
// (or after the chain ending at V, with After set) in analysis context
// Ctx.
type FactKey struct {
	Ctx   int
	V     *pfg.Vertex
	After bool
}

// Metrics aggregates the measurements of one analysis run.
type Metrics struct {
	access map[accKey]*AccessSample
	par    map[parKey]*ParSample
	points map[PointKey]*Triple

	// NumContexts is the total number of analysis contexts generated.
	NumContexts int

	// CallMemoHits and CallMemoMisses count the call-site transfer memo
	// probes (memo.go) across all rounds. The engine is sequential, so the
	// split is a deterministic function of the program and the options.
	CallMemoHits   int
	CallMemoMisses int

	// SolverSteps counts worklist chain transfers across all rounds. It is
	// tracked only when a context or budget is attached (the default path
	// runs poll-free).
	SolverSteps int64
	// DegradedContexts counts the procedure contexts that exceeded a
	// budget and fell back to the flow-insensitive result.
	DegradedContexts int
}

func newMetrics() *Metrics {
	m := &Metrics{points: map[PointKey]*Triple{}}
	m.resetRound()
	return m
}

// resetRound drops the samples recorded so far; the analysis calls it at
// the start of every round, with its fact store.
func (m *Metrics) resetRound() {
	m.access = map[accKey]*AccessSample{}
	m.par = map[parKey]*ParSample{}
}

// PointAt returns the recorded triple at a program point, or nil. The
// triple is the state in which the instruction at Idx executes; contexts
// are numbered 0..ContextsTotal()-1 and the root (main) context is 0.
func (r *Result) PointAt(k PointKey) *Triple { return r.Metrics.points[k] }

// Points returns all recorded program points (RecordPoints only).
func (r *Result) Points() map[PointKey]*Triple { return r.Metrics.points }

// AccessSamples returns all access measurements, ordered by (AccID, CtxID).
func (m *Metrics) AccessSamples() []*AccessSample {
	out := make([]*AccessSample, 0, len(m.access))
	for _, s := range m.access {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AccID != out[j].AccID {
			return out[i].AccID < out[j].AccID
		}
		return out[i].CtxID < out[j].CtxID
	})
	return out
}

// ParSamples returns all parallel-construct measurements.
func (m *Metrics) ParSamples() []*ParSample {
	out := make([]*ParSample, 0, len(m.par))
	for _, s := range m.par {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FnName != out[j].FnName {
			return out[i].FnName < out[j].FnName
		}
		if out[i].NodeID != out[j].NodeID {
			return out[i].NodeID < out[j].NodeID
		}
		return out[i].CtxID < out[j].CtxID
	})
	return out
}

// ---------------------------------------------------------------------------
// Fact recording

// factRecorder snapshots solver facts into the analysis fact store. It
// records the triple before every vertex that needs one — vertices with
// measured accesses always, every vertex when RecordPoints is set — and
// the triple after each chain tail when RecordPoints is set (the
// after-the-last-instruction program point). Par vertices never carry
// program points (their regions are solved at the parbegin transfer).
//
// Within a fixed point, later (more converged) solves of the same vertex
// overwrite earlier ones.
type factRecorder struct {
	a   *Analysis
	ctx *ctxEntry
}

func (r *factRecorder) RecordIn(v *pfg.Vertex, in *Triple) {
	if v.Kind == pfg.KindParBegin || v.Kind == pfg.KindParEnd {
		return
	}
	if r.a.opts.RecordPoints {
		r.a.facts[FactKey{Ctx: r.ctx.id, V: v}] = in.Clone()
		return
	}
	if !v.HasAcc {
		return
	}
	// Access derivation reads C and I only (E never influences a deref
	// set), so the created-edge graph need not be snapshotted. On the
	// fast path I is the analysis-wide empty graph — immutable, shared
	// as-is.
	iSnap := in.I
	if !r.a.seqFast {
		iSnap = iSnap.Clone()
	}
	r.a.facts[FactKey{Ctx: r.ctx.id, V: v}] = &Triple{C: in.C.Clone(), I: iSnap}
}

func (r *factRecorder) RecordOut(tail *pfg.Vertex, out *Triple) {
	if !r.a.opts.RecordPoints {
		return
	}
	if tail.Kind == pfg.KindParBegin || tail.Kind == pfg.KindParEnd {
		return
	}
	r.a.facts[FactKey{Ctx: r.ctx.id, V: tail, After: true}] = out.Clone()
}

// putPar stores the convergence measurement of one par construct analysis.
func (m *Metrics) putPar(n *ir.Node, ctx, iterations, threads int) {
	m.par[parKey{node: n, ctx: ctx}] = &ParSample{
		NodeID: n.ID, FnName: n.Fn.Name, CtxID: ctx,
		Iterations: iterations, Threads: threads,
	}
}

// ---------------------------------------------------------------------------
// Deriving the measurements from the facts

// deriveMetrics turns the recorded solver facts into access samples and
// (with RecordPoints) per-point triples. The replay applies only
// straight-line transfer functions: call instructions are isolated in
// their own vertices, whose after-state is the next vertex's fact, so they
// are never re-executed. A failing replay is an internal invariant
// violation, reported as an *errs.ICEError.
func (a *Analysis) deriveMetrics() error {
	x := &exec{a: a}
	// The replay can intern location sets the solve itself never
	// materialised (a deref through an access-only fact's C graph), so it
	// must run in a deterministic order or fresh IDs would depend on map
	// iteration order.
	keys := make([]FactKey, 0, len(a.facts))
	for k := range a.facts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		if ki.Ctx != kj.Ctx {
			return ki.Ctx < kj.Ctx
		}
		if ki.V.ID != kj.V.ID {
			return ki.V.ID < kj.V.ID
		}
		return !ki.After && kj.After
	})
	for _, k := range keys {
		fact := a.facts[k]
		v := k.V
		if k.After {
			if a.opts.RecordPoints {
				idx := v.InstrOff + len(v.Instrs)
				a.metrics.points[PointKey{Node: v.Node, Idx: idx, Ctx: k.Ctx}] = fact
			}
			continue
		}
		if !v.HasAcc && !a.opts.RecordPoints {
			continue
		}
		cur := fact
		if cur.E == nil {
			// Access-only facts carry no created-edge snapshot; the replay
			// still needs a graph to write created edges into.
			cur = &Triple{C: cur.C, I: cur.I, E: ptgraph.New()}
		}
		mutated := false
		for i, in := range v.Instrs {
			if a.opts.RecordPoints {
				a.metrics.points[PointKey{Node: v.Node, Idx: v.InstrOff + i, Ctx: k.Ctx}] = cur.Clone()
			}
			if in.Op == ir.OpCall {
				break // single-instruction call vertex; nothing to replay
			}
			if in.AccID >= 0 {
				locs := accessLocs(in, cur)
				ak := accKey{acc: in.AccID, ctx: k.Ctx}
				a.metrics.access[ak] = &AccessSample{AccID: in.AccID, CtxID: k.Ctx, Locs: locs.Sorted()}
			}
			if i+1 < len(v.Instrs) || a.opts.RecordPoints {
				if !mutated {
					cur = cur.Clone()
					mutated = true
				}
				// The replay re-applies the transfer on mostly-warm state;
				// it may still intern location sets the solve never
				// materialised, which is why the fact iteration above is
				// ordered.
				if err := x.transferInstr(in, cur, nil); err != nil {
					return errs.ICE(fmt.Sprint(in.Pos), "replaying a straight-line instruction failed: %v", err)
				}
			}
		}
	}
	return nil
}

// accessLocs computes the deref set a measured access touches, from the
// state in which the instruction executes.
func accessLocs(in *ir.Instr, t *Triple) ptgraph.Set {
	switch in.Op {
	case ir.OpLoad, ir.OpDataLoad:
		return derefPtr(ptgraph.NewSet(in.Src), t.C)
	case ir.OpStore, ir.OpDataStore:
		return derefPtr(ptgraph.NewSet(in.Dst), t.C)
	}
	return ptgraph.NewSet(locset.UnkID)
}

// ---------------------------------------------------------------------------
// Result accessors

// ContextCount returns the number of analysis contexts generated for the
// given function (0 when the function was never analysed).
func (r *Result) ContextCount(fn *ir.Func) int { return r.contextsByFn[fn] }

// ContextsTotal returns the total number of analysis contexts.
func (r *Result) ContextsTotal() int { return r.contextsTotal }

// ExpandGhosts rewrites a sample's location sets, replacing ghost location
// sets with the actual location sets that were mapped to them (Table 4's
// counting convention), in ascending ID order. Non-ghost location sets
// pass through unchanged. The expansion of every sample in Metrics was
// computed when the run ended, so ExpandGhosts never writes the
// location-set table and is safe on a result shared between goroutines;
// the returned slice may be shared and must not be modified.
func (r *Result) ExpandGhosts(s *AccessSample) []locset.ID {
	if s.expanded != nil {
		return s.expanded
	}
	return expandSample(r.Table, s, nil)
}

// expandGhosts stores the ghost expansion of every access sample holding a
// ghost location set. Expanding interns location sets, so it walks the
// samples in AccessSamples order: their IDs are then deterministic.
func (a *Analysis) expandGhosts() {
	for _, s := range a.metrics.AccessSamples() {
		for _, id := range s.Locs {
			if a.tab.Get(id).Block.Kind == locset.KindGhost {
				s.expanded = expandSample(a.tab, s, a.ctxList[s.CtxID].ghostSrc)
				break
			}
		}
	}
}

// expandSample maps each ghost location set of s to the actual blocks srcs
// records for its block, interning the actual location sets as derived
// ones (locset.Table.InternDerived); with a nil srcs it only sorts and
// deduplicates.
func expandSample(tab *locset.Table, s *AccessSample, srcs map[*locset.Block][]*locset.Block) []locset.ID {
	seen := map[locset.ID]bool{}
	var out []locset.ID
	add := func(id locset.ID) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range s.Locs {
		ls := tab.Get(id)
		actuals := srcs[ls.Block]
		if ls.Block.Kind != locset.KindGhost || len(actuals) == 0 {
			add(id)
			continue
		}
		for _, ab := range actuals {
			if ab.Kind == locset.KindGhost {
				add(id)
				continue
			}
			add(tab.InternDerived(ab, ls.Offset, ls.Stride, ls.Pointer))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
