// The dataflow instance (solve.go): the ⟨C,I,E⟩ triple lattice plugged
// into the generic worklist solver of internal/dataflow, running over the
// parallel flow graphs of internal/pfg, with the transfer functions of
// Figures 3 and 4.

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

// exec runs transfers over an Analysis. It owns the reusable scratch
// state of the interprocedural hot path; every use completes before
// analyzeContext can re-enter callOne on the same executor, so plain
// per-exec reuse is safe (see interproc.go).
type exec struct {
	a *Analysis

	// steps counts the chain transfers of the current procedure-context
	// analysis against Options.Budget.MaxSolverSteps (nil when that budget
	// is unset). analyzeContext swaps in a fresh counter per procedure, so
	// par-region solves bill the enclosing procedure.
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

// warnOnce emits a per-instruction warning at most once per run. When a
// seeder is attached, the warning is additionally recorded on the
// triggering context (before the global deduplication, so every context
// that observes the condition carries it in its harvested summary).
func (x *exec) warnOnce(in *ir.Instr, ctx *ctxEntry, format string, args ...any) {
	a := x.a
	if a.seeder != nil && ctx != nil {
		ctx.recordWarn(in, fmt.Sprintf(format, args...))
	}
	if a.warnedUnk[in] {
		return
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
		s.Recorder = &factRecorder{a: x.a, ctx: ctx}
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
			b.Add(x.a.tab.Bump(l, in.Elem))
		}
		x.assign(t, in.Dst, b.Build())
	case ir.OpField:
		src := derefPtr(ptgraph.NewSet(in.Src), t.C)
		var b ptgraph.SetBuilder
		for _, l := range src.IDs() {
			b.Add(x.a.tab.Elem(l, in.Elem, in.PtrTarget))
		}
		x.assign(t, in.Dst, b.Build())
	case ir.OpAlloc:
		hb := x.a.tab.HeapBlock(in.Site, x.a.prog.Info.AllocSites[in.Site].SiteType, "")
		hl := x.a.tab.Intern(hb, 0, 0, in.PtrTarget)
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
