// Dataflow equations for parallel constructs: the par fixed point of
// Figure 6 (including conditionally created threads, §3.11), the parallel
// loop equations of §3.8, and the private-global handling of §3.9.

package core

import (
	"mtpa/internal/errs"
	"mtpa/internal/locset"
	"mtpa/internal/pfg"
	"mtpa/internal/ptgraph"
)

// transferRegion is the single entry point for parallel-region vertices:
// parallel loops go to the §3.8 equations, every other region — structured
// par and the normalized thread_create/join groups, which share one
// interference model — goes to the Figure 6 fixed point.
func (x *exec) transferRegion(region *pfg.ParRegion, t *Triple, ctx *ctxEntry) (*Triple, error) {
	if region.IsLoop {
		return x.transferParFor(region, t, ctx)
	}
	return x.transferPar(region, t, ctx)
}

// transferPar solves the par-construct dataflow equations:
//
//	C_i = C ∪ ⋃_{j≠i} E_j      I_i = I ∪ ⋃_{j≠i} E_j
//	[[t_i]]⟨C_i, I_i, ∅⟩ = ⟨C′_i, I_i, E_i⟩
//	C′  = ∩_i C′_i             E′  = E ∪ ⋃_i E_i
//
// The circular dependence on the E_j is broken by iterating from E_j = ∅
// until the created-edge sets stabilise: each iteration is a Gauss–Seidel
// sweep that solves the threads in order, each against the latest E_j.
func (x *exec) transferPar(region *pfg.ParRegion, t *Triple, ctx *ctxEntry) (*Triple, error) {
	a := x.a
	if a.seqFast {
		// Tripwire: the fast path is only entered when ir.ParReachable
		// proved no par construct executes; reaching one means the
		// reachability pass is unsound, not that the program is wrong.
		return nil, errs.ICE("", "par construct reached under the sequential fast path")
	}
	if a.opts.Mode == Sequential {
		return x.transferParSequential(region, t, ctx)
	}
	k := len(region.Threads)
	Es := make([]*ptgraph.Graph, k)
	for i := range Es {
		Es[i] = ptgraph.New()
	}
	Couts := make([]*ptgraph.Graph, k)
	Cins := make([]*ptgraph.Graph, k)

	iters := 0
	for {
		iters++
		changed := false
		for i := range region.Threads {
			ch, err := x.parSolveThread(region, i, t, ctx, Es, Couts, Cins)
			if err != nil {
				return nil, err
			}
			if ch {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	a.metrics.putPar(region.Node, ctx.id, iters, k)

	// Combine: intersection of the thread outputs; a conditionally created
	// thread may not run at all, so its input graph is unioned back first
	// (this restores every edge the thread killed, as §3.11 requires).
	// Detached threads are excluded from the intersection — the region ends
	// when the joined threads finish, not when they do — and instead extend
	// the downstream interference environment below.
	combined := make([]*ptgraph.Graph, 0, k)
	for i := range region.Threads {
		if region.DetachedThread(i) {
			continue
		}
		ci := Couts[i]
		if region.CondThread[i] {
			// The thread may not have been created at all: union its input
			// graph back, restoring every edge it killed (§3.11).
			ci = ci.Clone()
			unionPathC(ci, Cins[i])
		}
		if a.hasPrivates {
			ci = a.privMask(ci)
		}
		combined = append(combined, ci)
	}
	var Cprime *ptgraph.Graph
	if len(combined) > 0 {
		Cprime = ptgraph.IntersectAll(combined)
	} else {
		// Every thread is detached: creation itself transfers no pointer
		// values, so the creating thread's state flows on unchanged.
		Cprime = t.C.Clone()
	}
	if a.hasPrivates {
		a.privRestoreParent(Cprime, t.C)
	}
	Eprime := t.E.Clone()
	for i := range Es {
		Eprime.Union(Es[i])
	}
	// The interference edges known at the par construct remain valid after
	// it; keep I ⊆ C. A detached thread keeps running after the region, so
	// its created edges additionally join the downstream interference set —
	// no later strong update may kill an edge a live thread can recreate.
	Iprime := t.I
	if region.HasDetached() {
		Iprime = t.I.Clone()
		for i := range Es {
			if region.DetachedThread(i) {
				Iprime.Union(Es[i])
			}
		}
	}
	Cprime.Union(Iprime)
	return &Triple{C: Cprime, I: Iprime, E: Eprime}, nil
}

// parSolveThread performs one Gauss–Seidel step for thread i: build its
// ⟨C_i, I_i⟩ inputs from the construct input and the current created-edge
// sets of the sibling threads, solve its body, and update E_i. It reports
// whether E_i changed. A detached thread additionally races with every
// statement downstream of the region — code this solve never sees — so
// its inputs absorb the flow-insensitive graph, which over-approximates
// every edge any part of the program ever creates (precomputed in
// analyze; see engine.go).
func (x *exec) parSolveThread(region *pfg.ParRegion, i int, t *Triple, ctx *ctxEntry, Es, Couts, Cins []*ptgraph.Graph) (bool, error) {
	a := x.a
	Ci := t.C.Clone()
	Ii := t.I.Clone()
	for j := range Es {
		if j == i {
			continue
		}
		// The sibling may have run (its created edges are visible) or not
		// (locations it wrote still hold their prior values, including the
		// initial unk).
		addCreatedC(Ci, Es[j])
		Ii.Union(Es[j])
	}
	if region.DetachedThread(i) {
		fi := a.flowinsensGraph()
		addCreatedC(Ci, fi)
		Ii.Union(fi)
	}
	if a.hasPrivates {
		a.privEnterThread(Ci)
		a.privEnterThread(Ii)
	}
	Cins[i] = Ci.Clone()
	out, err := x.solveBody(region.Threads[i], &Triple{C: Ci, I: Ii, E: ptgraph.New()}, ctx)
	if err != nil {
		return false, err
	}
	Couts[i] = out.C
	Ei := out.E
	if a.hasPrivates {
		Ei = a.privMask(Ei)
	}
	if !Ei.Equal(Es[i]) {
		Es[i] = Ei
		return true, nil
	}
	return false, nil
}

// transferParSequential analyses the threads one after another in textual
// order, ignoring interference — the (unsound) Sequential baseline of §4.4.
func (x *exec) transferParSequential(region *pfg.ParRegion, t *Triple, ctx *ctxEntry) (*Triple, error) {
	cur := t
	for _, th := range region.Threads {
		out, err := x.solveBody(th, &Triple{C: cur.C, I: cur.I, E: ptgraph.New()}, ctx)
		if err != nil {
			return nil, err
		}
		e := cur.E
		e.Union(out.E)
		cur = &Triple{C: out.C, I: cur.I, E: e}
	}
	x.a.metrics.putPar(region.Node, ctx.id, 1, len(region.Threads))
	return cur, nil
}

// transferParFor solves the parallel-loop equations of §3.8:
//
//	[[body]]⟨C ∪ E₀, I ∪ E₀, ∅⟩ = ⟨C₀′, I ∪ E₀, E₀⟩
//	[[parfor body]]⟨C, I, E⟩ = ⟨C₀′, I, E ∪ E₀⟩
//
// E₀ is computed by iteration from ∅. The loop body replicates across an
// unknown number of concurrent threads, conservatively assumed ≥ 2. As a
// soundness refinement for loops that may execute zero iterations, the
// input graph C is unioned into the outgoing graph (the paper's equations
// assume the body executes).
func (x *exec) transferParFor(region *pfg.ParRegion, t *Triple, ctx *ctxEntry) (*Triple, error) {
	a := x.a
	if a.seqFast {
		return nil, errs.ICE("", "parfor construct reached under the sequential fast path")
	}
	body := region.Threads[0]
	if a.opts.Mode == Sequential {
		return x.transferLoopSequential(body, t, ctx)
	}
	E0 := ptgraph.New()
	Cout := ptgraph.New()
	iters := 0
	for {
		iters++
		Ci := t.C.Clone()
		addCreatedC(Ci, E0)
		Ii := t.I.Clone()
		Ii.Union(E0)
		if a.hasPrivates {
			a.privEnterThread(Ci)
			a.privEnterThread(Ii)
		}
		out, err := x.solveBody(body, &Triple{C: Ci, I: Ii, E: ptgraph.New()}, ctx)
		if err != nil {
			return nil, err
		}
		Cout = out.C
		Ei := out.E
		if a.hasPrivates {
			Ei = a.privMask(Ei)
		}
		if E0.Contains(Ei) {
			break
		}
		E0.Union(Ei)
	}
	a.metrics.putPar(region.Node, ctx.id, iters, 2)

	Cprime := Cout
	if a.hasPrivates {
		Cprime = a.privMask(Cprime)
	} else {
		Cprime = Cprime.Clone()
	}
	unionPathC(Cprime, t.C) // zero-trip path union
	if a.hasPrivates {
		a.privRestoreParent(Cprime, t.C)
	}
	Eprime := t.E.Clone()
	Eprime.Union(E0)
	return &Triple{C: Cprime, I: t.I, E: Eprime}, nil
}

// transferLoopSequential analyses a parallel loop as an ordinary sequential
// loop (for the Sequential baseline): iterate the body transfer until the
// merged state stabilises.
func (x *exec) transferLoopSequential(body *pfg.Graph, t *Triple, ctx *ctxEntry) (*Triple, error) {
	cur := t.C.Clone()
	eAcc := ptgraph.New()
	for {
		out, err := x.solveBody(body, &Triple{C: cur.Clone(), I: t.I, E: ptgraph.New()}, ctx)
		if err != nil {
			return nil, err
		}
		eAcc.Union(out.E)
		if !unionPathC(cur, out.C) {
			break
		}
	}
	e := t.E
	e.Union(eAcc)
	return &Triple{C: cur, I: t.I, E: e}, nil
}

// ---------------------------------------------------------------------------
// Private global variables (§3.9)
//
// Each thread gets its own version of every private global. When the
// analysis propagates information into a thread, the thread's fresh
// versions point to unk and any pointers to the parent's versions are
// redirected to unk. When information flows out of child threads, edges
// mentioning the children's versions are replaced by unk, and the parent's
// own private-global edges are restored from the graph flowing into the
// construct.

func (a *Analysis) isPrivate(id locset.ID) bool {
	if id == locset.UnkID {
		return false
	}
	return a.privBlocks[a.tab.Get(id).Block]
}

// privEnterThread rewrites a graph for a thread boundary: private-global
// sources lose their edges (the fresh version is uninitialised, i.e. unk
// via the deref backstop), and edges pointing at private globals are
// redirected to unk.
func (a *Analysis) privEnterThread(g *ptgraph.Graph) {
	var kill ptgraph.SetBuilder
	var rm ptgraph.GraphBuilder
	var unkSrcs []locset.ID
	g.ForEach(func(src locset.ID, dsts ptgraph.Set) {
		srcPrivate := a.isPrivate(src)
		if srcPrivate {
			kill.Add(src)
		}
		for _, d := range dsts.IDs() {
			if !srcPrivate && a.isPrivate(d) {
				rm.Add(src, d)
				unkSrcs = append(unkSrcs, src)
			}
		}
	})
	g.Kill(kill.Build())
	if len(unkSrcs) > 0 {
		g.KillEdges(rm.Build())
		for _, s := range unkSrcs {
			g.Add(s, locset.UnkID)
		}
	}
}

// privMask replaces occurrences of private globals with unk (edges whose
// source becomes unk are dropped).
func (a *Analysis) privMask(g *ptgraph.Graph) *ptgraph.Graph {
	return g.Map(func(id locset.ID) locset.ID {
		if a.isPrivate(id) {
			return locset.UnkID
		}
		return id
	})
}

// privRestoreParent restores the parent's private-global points-to
// information from the graph that flowed into the parallel construct.
func (a *Analysis) privRestoreParent(g *ptgraph.Graph, inC *ptgraph.Graph) {
	inC.ForEach(func(src locset.ID, dsts ptgraph.Set) {
		if a.isPrivate(src) {
			g.AddSet(src, dsts)
			return
		}
		for _, d := range dsts.IDs() {
			if a.isPrivate(d) {
				g.Add(src, d)
			}
		}
	})
}
