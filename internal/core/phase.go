// The parallel pre-solve phase of the interprocedural engine: the
// generalization of par.go's speculation protocol from the threads of
// one par construct to the ⟨procedure, context⟩ tasks of the whole
// fixed point.
//
// Before each round's canonical sequential sweep, every known context
// is solved speculatively against the *frozen round-start state* on a
// work-stealing pool (internal/sched, bounded by
// Options.FixpointWorkers). The tasks are independent by construction:
// a speculative executor may not mutate any shared state — it probes
// the location-set table, the context cache and the (per-context,
// read-only during the phase) call-site memo, buffers its fact and
// sample records, and, where the sequential solve would recursively
// analyze a callee, it instead consumes the callee's round-start result
// and logs a dependency record ⟨callee, version⟩.
// Anything it cannot do without mutating — interning a location set,
// creating a context, emitting a globally new warning — aborts the
// task (panic(specAbort{})), exactly as in par.go.
//
// The pool is joined before the sweep starts, so the sweep never races
// a speculation. Commits are demand-driven and deterministic: when the
// sequential sweep demands a context that holds a pending speculation,
// it first re-demands every logged dependency — in the order the
// speculative solve first consumed them, which is the sequential
// solve's own demand order — and compares result versions. If every
// dependency still has the version the speculation consumed, the
// sequential solve would have seen byte-for-byte the same inputs and
// produced byte-for-byte the same trajectory, so the buffered side
// effects are replayed and the output committed; at the first mismatch
// the pending is discarded and the context is solved for real (the
// dependency demands already made are exactly the prefix the real
// solve would have issued itself, so nothing diverges). Contexts never
// demanded by the sweep never commit — their stale speculations are
// dropped at the next phase. Rounds, context creation order, warnings,
// ProcAnalyses and every recorded sample are therefore identical to
// the FixpointWorkers=1 run; only wall-clock time and the (explicitly
// schedule-varying) memo hit/miss split and SolverSteps change.
//
// The phase pays off most in the fixed point's final round, the
// confirmation round whose facts are also the measurements: no result
// grows, every dependency validates, the sweep degenerates to O(deps)
// commits, and that sweep — half of all solver work in the common
// two-round run — runs at the pool's parallelism.
//
// The phase is skipped (yielding the exact sequential engine) when the
// resolved worker count is < 2, when the context cache is disabled
// (every demand then does real work a speculation may never perform),
// and under a resource Budget (degradation points depend on wall time
// and global table size, which a concurrent phase would perturb).

package core

import (
	"mtpa/internal/ptgraph"
	"mtpa/internal/sched"
)

// depRec records one dependency consumption of a task speculation: the
// context whose current result the speculative solve read, and the
// version it read. The commit validates that the version is still
// current after the dependency has been brought to its authoritative
// this-round state.
type depRec struct {
	ctx *ctxEntry
	ver uint64
}

// pendingTask is a completed task speculation awaiting the canonical
// sweep's commit-or-discard decision. It belongs to the round whose phase
// produced it: the next phase discards every pending.
type pendingTask struct {
	out  *Triple
	buf  *specBuf
	deps []depRec
}

// speculateContexts runs the parallel pre-solve phase for the current
// round: it snapshots the known contexts, solves each speculatively on
// the pool, and attaches the surviving speculations as pendings for the
// sweep to commit. It mutates no other engine state.
func (a *Analysis) speculateContexts() error {
	workers := a.opts.fixpointWorkers()
	if workers < 2 || a.opts.DisableContextCache || a.opts.Budget != (Budget{}) {
		return nil
	}
	tasks := make([]*ctxEntry, 0, len(a.ctxList))
	for _, e := range a.ctxList {
		e.pending = nil // a stale pending from an earlier phase is dead
		if e.seeded != nil {
			continue // applySeed stands in for the solve; nothing to pre-solve
		}
		tasks = append(tasks, e)
	}
	if len(tasks) < 2 {
		return nil
	}

	// Inputs are prepared sequentially: Clone marks its receiver
	// copy-on-write, and the context input graphs are shared with the
	// cache probes other tasks run concurrently. On the fast path every
	// Ip is empty and the shared empty graph stands in for it; the fresh
	// E graph is the task's solve accumulator (solve.go).
	ins := make([]*Triple, len(tasks))
	for i, e := range tasks {
		in := &Triple{C: e.Cp.Clone(), I: e.Ip.Clone(), E: ptgraph.New()}
		if a.seqFast {
			in.I = a.emptyI
		}
		ins[i] = in
	}

	pendings := make([]*pendingTask, len(tasks))
	sched.Run(min(workers, len(tasks)), len(tasks), func(_, i int) {
		pendings[i] = a.speculateOne(tasks[i], ins[i])
	})
	// The pool has joined: workers are gone, no goroutine outlives the
	// phase. On cancellation the tasks returned early with nil pendings;
	// surface the context error before the sweep re-discovers it.
	if err := a.ctx.Err(); err != nil {
		return err
	}
	for i, p := range pendings {
		if p != nil {
			tasks[i].pending = p
		}
	}
	return nil
}

// speculateOne solves one context speculatively against the frozen
// round-start state. An aborted (specAbort) or errored solve yields a
// nil pending — the sweep simply solves the context for real. Any other
// panic propagates to the coordinator through the pool.
func (a *Analysis) speculateOne(e *ctxEntry, in *Triple) (p *pendingTask) {
	// specSem bounds the process-wide number of concurrent speculative
	// solves, shared with the par fixed point (par.go): an AnalyzeAll-style
	// caller running many analyses concurrently does not oversubscribe.
	specSem <- struct{}{}
	defer func() { <-specSem }()
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(specAbort); !isAbort {
				panic(r)
			}
			p = nil
		}
	}()
	sx := &exec{a: a, spec: &specState{phase: true}}
	out, err := sx.solveBody(a.flow.FuncGraph(e.fn), in, e)
	if err != nil {
		// Only context cancellation can surface here (budgets disable the
		// phase); the coordinator reports it after the join.
		return nil
	}
	return &pendingTask{out: out, buf: &sx.spec.buf, deps: sx.spec.deps}
}

// commitPending validates and commits one pending speculation at its
// canonical demand point. It reports whether the pending stood; on
// false the caller falls through to the ordinary sequential solve.
func (x *exec) commitPending(e *ctxEntry, p *pendingTask) (bool, error) {
	a := x.a
	// Bring every consumed dependency to its authoritative this-round
	// state, in first-consumption order — exactly the demand prefix the
	// replaced solve would have issued — and stop at the first version
	// divergence. inProgress guards the walk the same way it guards a
	// real solve: a dependency cycle back into e consumes e's current
	// result, as it would mid-solve.
	e.inProgress = true
	valid := true
	var derr error
	for _, d := range p.deps {
		if err := x.analyzeContext(d.ctx); err != nil {
			derr = err
			break
		}
		if d.ctx.result.version != d.ver {
			valid = false
			break
		}
	}
	e.inProgress = false
	if derr != nil {
		return false, derr
	}
	if !valid {
		return false, nil
	}
	e.doneRound = a.round
	e.callees = nil
	a.procAnalyses++
	x.replaySpec(p.buf)
	grew := e.result.C.Union(p.out.C)
	if e.result.E.Union(p.out.E) {
		grew = true
	}
	if grew {
		e.result.version++
		a.changed = true
	}
	return true, nil
}
