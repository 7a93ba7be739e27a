// The dataflow instance (solve.go): the ⟨C,I,E⟩ triple lattice plugged
// into the generic worklist solver of internal/dataflow, running over the
// parallel flow graphs of internal/pfg, with the transfer functions of
// Figures 3 and 4.
//
// Every transfer runs through an executor (exec). The ordinary executor
// mutates the analysis state directly. A speculative executor — used by
// the concurrent par fixed point in par.go — must leave all shared state
// untouched: it replaces every interning or caching operation with a
// lookup-only probe and aborts (via panic(specAbort{})) the moment a
// transfer would have to create a location set, intern a new analysis
// context, analyse a procedure body, or emit a warning. Fact and sample
// records are buffered and replayed only if the speculation commits. A
// committed speculation is therefore bit-identical to the sequential
// execution it replaced.

package core

import (
	"fmt"
	"sync/atomic"

	"mtpa/internal/dataflow"
	"mtpa/internal/ir"
	"mtpa/internal/locset"
	"mtpa/internal/pfg"
	"mtpa/internal/ptgraph"
)

// exec is one execution capability over an Analysis: either the real
// executor (spec == nil) or a speculative one. Each executor also owns
// the reusable scratch state of the interprocedural hot path; every use
// completes before analyzeContext can re-enter callOne on the same
// executor, so plain per-exec reuse is safe (see interproc.go).
type exec struct {
	a    *Analysis
	spec *specState

	// steps counts the chain transfers of the current procedure-context
	// analysis against Options.Budget.MaxSolverSteps (nil when that budget
	// is unset). analyzeContext swaps in a fresh counter per procedure;
	// speculative executors share their coordinator's counter so par-region
	// solves bill the enclosing procedure.
	steps *atomic.Int64

	// Call-site scratch: the reachability bitset and the graph builders
	// of projection and expansion (reset at each use, retaining storage).
	reach          locset.BlockSet
	cpB, isoB, ipB ptgraph.GraphBuilder
	expB           ptgraph.GraphBuilder
	cands          []candidate
	sigGroups      []sigGroup
	sigBuf         []uint64
}

// specState buffers the side effects of a speculative solve.
type specState struct {
	buf specBuf

	// phase marks a task speculation of the parallel pre-solve phase
	// (phase.go). Where a par-thread speculation aborts on a callee that
	// needs real work, a task speculation consumes the callee's frozen
	// round-start result and records it in deps; the commit validates
	// the recorded versions against the authoritative this-round state.
	phase   bool
	deps    []depRec
	depSeen map[*ctxEntry]bool

	// memoIdx is the speculation's local view of its buffered call-memo
	// populations (buf.memos), so revisits within one speculative solve
	// hit the memo exactly as the sequential solve they predict would.
	memoIdx map[memoKey][]*memoEntry
}

// logDep records the first consumption of a context's current result by
// a task speculation. Later consumptions are no-ops: the result is
// frozen while the phase runs, so they would record the same version,
// and first-consumption order is the order the commit must re-demand
// dependencies in.
func (s *specState) logDep(e *ctxEntry) {
	if s.depSeen[e] {
		return
	}
	if s.depSeen == nil {
		s.depSeen = map[*ctxEntry]bool{}
	}
	s.depSeen[e] = true
	s.deps = append(s.deps, depRec{ctx: e, ver: e.result.version})
}

// specBuf holds metric records, call-memo populations and memo counter
// bumps produced during a speculation, replayed in commit order if the
// speculation is valid.
type specBuf struct {
	facts      []factRec
	pars       []parRec
	memos      []memoRec
	warns      []warnRec
	callees    []calleeRec
	memoHits   int
	memoMisses int
}

type factRec struct {
	key  FactKey
	fact *Triple
}

type parRec struct {
	node       *ir.Node
	ctx        int
	iterations int
	threads    int
}

// specAbort is the panic payload that unwinds an impossible speculation.
type specAbort struct{}

func (x *exec) abort() {
	panic(specAbort{})
}

// ---------------------------------------------------------------------------
// Location-set table access: the speculative executor probes, the real
// executor interns.

func (x *exec) intern(b *locset.Block, offset, stride int64, pointer bool) locset.ID {
	if x.spec != nil {
		id, ok := x.a.tab.Probe(b, offset, stride, pointer)
		if !ok {
			x.abort()
		}
		return id
	}
	return x.a.tab.Intern(b, offset, stride, pointer)
}

func (x *exec) bump(id locset.ID, elem int64) locset.ID {
	if x.spec != nil {
		nid, ok := x.a.tab.ProbeBump(id, elem)
		if !ok {
			x.abort()
		}
		return nid
	}
	return x.a.tab.Bump(id, elem)
}

func (x *exec) elem(id locset.ID, off int64, pointer bool) locset.ID {
	if x.spec != nil {
		nid, ok := x.a.tab.ProbeElem(id, off, pointer)
		if !ok {
			x.abort()
		}
		return nid
	}
	return x.a.tab.Elem(id, off, pointer)
}

func (x *exec) heapBlock(in *ir.Instr) *locset.Block {
	if x.spec != nil {
		b, ok := x.a.tab.ProbeHeapBlock(in.Site)
		if !ok {
			x.abort()
		}
		return b
	}
	site := x.a.prog.Info.AllocSites[in.Site]
	return x.a.tab.HeapBlock(in.Site, site.SiteType, "")
}

func (x *exec) ghost(idx int, summary bool) *locset.Block {
	if x.spec != nil {
		b, ok := x.a.tab.ProbeGhost(idx, summary)
		if !ok {
			x.abort()
		}
		return b
	}
	return x.a.tab.Ghost(idx, summary)
}

// warnOnce emits a per-instruction warning at most once per run. A
// speculation that would emit a globally new warning aborts instead.
// When a seeder is attached, the warning is additionally recorded on the
// triggering context (before the global deduplication, so every context
// that observes the condition carries it in its harvested summary); under
// speculation the per-context record is buffered and replayed on commit.
func (x *exec) warnOnce(in *ir.Instr, ctx *ctxEntry, format string, args ...any) {
	a := x.a
	if a.seeder != nil && ctx != nil {
		text := fmt.Sprintf(format, args...)
		if x.spec != nil {
			x.spec.buf.warns = append(x.spec.buf.warns, warnRec{ctx: ctx, in: in, text: text})
		} else {
			ctx.recordWarn(in, text)
		}
	}
	if a.warnedUnk[in] {
		return
	}
	if x.spec != nil {
		x.abort()
	}
	a.warnedUnk[in] = true
	a.warnings = append(a.warnings, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// The dataflow instance.

// bodyProblem instantiates the generic solver with the ⟨C,I,E⟩ lattice:
// join is the triple merge (pathwise union of C with unk-completion, plain
// union of I and E), and the transfer function dispatches on vertex kind.
//
// On the sequential fast path (Analysis.seqFast) the lattice degenerates:
// I is empty at every point (no par/parfor can execute, so no thread ever
// interferes), and E — which no transfer function reads and which only
// the procedure exit consumes — is threaded through every fact as one
// shared accumulator graph (acc, the solve's entry E). The transfer
// functions are unchanged: their E writes land in the accumulator, which
// grows monotonically, and because every pfg vertex lies on a path to the
// exit (lowering never prunes a loop- or branch-exit edge) and OUT facts
// merge monotonically into their successors, the accumulator at the
// solver's fixed point equals exactly the E the full engine threads to
// the exit. Clone then copies only C, Merge unions only C — and a fact
// revisit whose C did not grow no longer re-queues its successors just
// because E did, which is pure savings: E growth has no reader before the
// exit.
type bodyProblem struct {
	x   *exec
	ctx *ctxEntry

	// seq selects the fast-path lattice; acc is the solve's shared E
	// accumulator (the entry fact's E graph).
	seq bool
	acc *ptgraph.Graph
}

func (p bodyProblem) Bottom() *Triple {
	if p.seq {
		return &Triple{C: ptgraph.New(), I: p.x.a.emptyI, E: p.acc}
	}
	return NewTriple()
}

func (p bodyProblem) Clone(t *Triple) *Triple {
	if p.seq {
		return &Triple{C: t.C.Clone(), I: t.I, E: p.acc}
	}
	return t.Clone()
}

func (p bodyProblem) Merge(dst, src *Triple) bool {
	if p.seq {
		// I is empty on both sides and E is the shared accumulator on
		// both sides; only C carries per-path information.
		return unionPathC(dst.C, src.C)
	}
	return dst.Merge(src)
}

func (p bodyProblem) Transfer(v *pfg.Vertex, in *Triple) (*Triple, error) {
	switch v.Kind {
	case pfg.KindParBegin:
		return p.x.transferRegion(v.Par, in, p.ctx)
	case pfg.KindParEnd:
		// The region's dataflow is solved at the parbegin vertex; the
		// parend vertex is its chain successor and passes the fact on.
		return in, nil
	default:
		for _, instr := range v.Instrs {
			if err := p.x.transferInstr(instr, in, p.ctx); err != nil {
				return nil, err
			}
		}
		return in, nil
	}
}

// solveBody runs the worklist solver over one flow graph. A solve in a
// context snapshots, through a fact recorder, the per-vertex triples the
// measurements are derived from (the final round's snapshots stand).
func (x *exec) solveBody(g *pfg.Graph, in *Triple, ctx *ctxEntry) (*Triple, error) {
	prob := bodyProblem{x: x, ctx: ctx}
	if x.a.seqFast {
		prob.seq = true
		prob.acc = in.E
	}
	s := &dataflow.Solver[*Triple]{
		Graph:    g,
		Prob:     prob,
		Schedule: dataflow.FIFO,
	}
	if ctx != nil {
		s.Recorder = &factRecorder{x: x, ctx: ctx}
	}
	if x.a.polling {
		s.Poll = x.poll
	}
	return s.Run(in)
}

// ---------------------------------------------------------------------------
// Transfer functions for the basic statements of Figures 3 and 4.

// transferInstr implements Figures 3 and 4 plus the derived address
// computations and calls.
func (x *exec) transferInstr(in *ir.Instr, t *Triple, ctx *ctxEntry) error {
	switch in.Op {
	case ir.OpAddrOf:
		x.assign(t, in.Dst, ptgraph.NewSet(in.Src))
	case ir.OpCopy:
		x.assign(t, in.Dst, derefPtr(ptgraph.NewSet(in.Src), t.C))
	case ir.OpLoad:
		addr := derefPtr(ptgraph.NewSet(in.Src), t.C)
		x.assign(t, in.Dst, derefPtr(addr, t.C))
	case ir.OpStore:
		lhs := derefPtr(ptgraph.NewSet(in.Dst), t.C)
		if lhs.Has(locset.UnkID) {
			x.warnOnce(in, ctx, "%s: store through potentially uninitialised pointer; assignment to unknown location ignored", in.Pos)
		}
		vals := derefPtr(ptgraph.NewSet(in.Src), t.C)
		x.assignThrough(t, lhs, vals)
	case ir.OpArith, ir.OpIndexAddr:
		src := derefPtr(ptgraph.NewSet(in.Src), t.C)
		var b ptgraph.SetBuilder
		for _, l := range src.IDs() {
			b.Add(x.bump(l, in.Elem))
		}
		x.assign(t, in.Dst, b.Build())
	case ir.OpField:
		src := derefPtr(ptgraph.NewSet(in.Src), t.C)
		var b ptgraph.SetBuilder
		for _, l := range src.IDs() {
			b.Add(x.elem(l, in.Elem, in.PtrTarget))
		}
		x.assign(t, in.Dst, b.Build())
	case ir.OpAlloc:
		hb := x.heapBlock(in)
		hl := x.intern(hb, 0, 0, in.PtrTarget)
		x.assign(t, in.Dst, ptgraph.NewSet(hl))
	case ir.OpNull, ir.OpUnknown:
		x.assign(t, in.Dst, ptgraph.NewSet(locset.UnkID))
	case ir.OpDataLoad, ir.OpDataStore:
		// Data-only accesses do not change the points-to relation; their
		// deref sets are measured from the recorded facts (metrics.go).
	case ir.OpDirectLoad, ir.OpDirectStore:
		// Direct array accesses have a statically known location set; they
		// are counted in the program characteristics but not in the
		// pointer-dereference precision metrics.
	case ir.OpLock, ir.OpUnlock:
		// Mutex operations transfer no pointer values. Mutual exclusion is
		// also not used to prune I here: removing a may-points-to edge for
		// the duration of a lock region would need must-alias information
		// about the state at the unlock, which the ⟨C,I,E⟩ lattice does not
		// carry. The race client consumes the lock sites instead (race.go).
	case ir.OpReturn:
		// The return value was already copied to the ret location set.
	case ir.OpCall:
		return x.transferCall(in, t, ctx)
	}
	return nil
}

// assign implements the dataflow equations of Figure 3 for an update of a
// single destination location set: kill (strong) or keep (weak) existing
// edges, add the gen edges to C and E, and restore the interference edges
// so that I ⊆ C is maintained.
func (x *exec) assign(t *Triple, dst locset.ID, targets ptgraph.Set) {
	a := x.a
	if dst == locset.UnkID {
		return // stores into the unknown location are ignored
	}
	strong := strongLoc(a.tab, dst) && !a.opts.DisableStrongUpdates
	if strong {
		// Kill + gen + interference restore in one interned-set replacement.
		t.C.ReplaceSucc(dst, targets.UnionSet(t.I.Succs(dst)))
	} else {
		t.C.AddSet(dst, targets)
	}
	t.E.AddSet(dst, targets)
}

// assignThrough implements the store equations: a strong update only when
// the written location is unique and strongly updatable.
func (x *exec) assignThrough(t *Triple, lhs ptgraph.Set, vals ptgraph.Set) {
	a := x.a
	strong := false
	if lhs.Len() == 1 && !a.opts.DisableStrongUpdates {
		strong = strongLoc(a.tab, lhs.IDs()[0])
	}
	for _, z := range lhs.IDs() {
		if z == locset.UnkID {
			continue // gen excludes {unk} × L
		}
		if strong {
			t.C.ReplaceSucc(z, vals.UnionSet(t.I.Succs(z)))
		} else {
			t.C.AddSet(z, vals)
		}
		t.E.AddSet(z, vals)
	}
}
