// Summary seeding: the incremental session (internal/session) retains,
// per procedure context, the fixed-point ⟨C,I⟩→⟨C,E⟩ transfer together
// with the measurements, warnings and callee-context edges of the
// context's final-round solve, all in the canonical table-independent
// encoding of canon.go. A later run over an equivalent procedure closure
// resolves the summary into its own fresh table and installs the result
// without solving anything: in every round the seeded context returns its
// retained result, re-injects the stored measurements and demands the
// stored callee keys, so the final round's demand closure — and with it
// every measurement — is reproduced exactly.
//
// Soundness of the warm result (the warm ≡ cold argument, detailed in
// DESIGN.md): the session seeds a context only when the procedure's whole
// transitive callee closure is textually unchanged, and a context's
// fixed-point result is a function of its inputs ⟨C_p, I_p, ghosts⟩ and
// that closure alone. Re-solving a seeded context therefore could not
// change its result, so skipping the solve is exact. A summary whose keys
// no longer resolve in the current program misses instead of
// mis-resolving: a context whose own key misses is solved from scratch,
// and a seeded context with a stored callee key that misses (its summary
// was evicted or invalidated) drops its seed and is solved for real.

package core

import (
	"context"
	"sort"

	"mtpa/internal/ir"
	"mtpa/internal/locset"
	"mtpa/internal/ptgraph"
)

// Summary is the retained fixed-point knowledge of one procedure context,
// fully canonical: it references no table pointers and survives across
// analysis runs and program edits.
type Summary struct {
	Fn  string // procedure name
	Key string // canonical context key (canonizer.ctxKey)

	// The context inputs, re-resolvable into a fresh table (used to
	// materialise contexts demanded by a seeded caller).
	Cp, Ip []CanonEdge
	Ghosts []CanonGhost

	// The fixed-point result: the output graph C′ and created edges E′.
	C, E []CanonEdge

	// Warnings this context's solves emitted (across all rounds),
	// replayed on seeding so the warm warning set matches the cold one.
	Warnings []SummaryWarning

	// Per-context measurements of the final round.
	Accesses []SummaryAccess
	Pars     []SummaryPar

	// Callees lists the canonical context keys this context demanded in
	// the final round; a seeded context demands them again in every round
	// so the demand closure is complete even when nothing is solved.
	Callees []string
}

// SummaryWarning is one per-context warning occurrence.
type SummaryWarning struct {
	Ref  InstrRef
	Text string
}

// SummaryAccess is one access measurement, keyed by the access's
// per-function ordinal (stable across edits to other procedures).
type SummaryAccess struct {
	Ord  int
	Locs []CanonLoc
}

// SummaryPar is one parallel-construct convergence measurement.
type SummaryPar struct {
	Node       int
	Iterations int
	Threads    int
}

// Seeder supplies retained summaries to an analysis run. Lookup is probed
// on every newly created context; LookupKey materialises contexts a
// seeded caller demands. Implementations must return summaries only when
// they are valid for the current program (the session checks the
// procedure's dependency hash); the engine additionally rejects any
// summary that does not resolve cleanly into the current table.
type Seeder interface {
	Lookup(fn, key string) *Summary
	LookupKey(key string) *Summary
}

// SeedStats reports summary-seeding outcomes of one run.
type SeedStats struct {
	Hits   int
	Misses int
	// HitsByFunc counts seeded contexts per procedure (empty or nil when
	// no context stayed seeded).
	HitsByFunc map[string]int
}

// seedState is a summary resolved into the current table, attached to its
// seeded context entry.
type seedState struct {
	sum    *Summary
	access []*AccessSample // CtxID filled at injection time
	pars   []seedPar
}

type seedPar struct {
	node       *ir.Node
	iterations int
	threads    int
}

// ctxWarn is one per-context warning record, harvested into summaries.
type ctxWarn struct {
	in   *ir.Instr
	text string
}

// AnalyzeWithSeeder is AnalyzeContext with a summary seeder attached:
// contexts whose canonical key hits the seeder return their retained
// fixed-point result without being solved. With a nil seeder it is
// exactly AnalyzeContext.
//
// It also returns one summary per context of the final round's demand
// closure, for the session's store; the caller must not modify them. The
// harvest is nil when nothing trustworthy can be harvested: runs without
// a seeder (the per-context warning and callee records are only kept when
// one is attached), degraded runs (budget fallbacks are not fixed-point
// results) and ablation runs with the context cache disabled.
func AnalyzeWithSeeder(ctx context.Context, prog *ir.Program, opts Options, seeder Seeder) (*Result, []*Summary, error) {
	return analyze(ctx, prog, opts, seeder, nil)
}

// AnalyzeWithSeederFI is AnalyzeWithSeeder with a caller-precomputed
// flow-insensitive graph (see AnalyzeContextFI): the tiered session path
// serves the graph as its tier-0 answer and shares it with the seeded
// refinement's Budget degradations. (Seeding and budgets are mutually
// exclusive by session policy, so in practice fi is a no-op there — the
// parameter keeps the sharing invariant uniform across entry points.)
func AnalyzeWithSeederFI(ctx context.Context, prog *ir.Program, opts Options, seeder Seeder, fi *ptgraph.Graph) (*Result, []*Summary, error) {
	return analyze(ctx, prog, opts, seeder, fi)
}

// SeedStats reports the summary-seeding outcomes of the run (zero value
// for runs without a seeder).
func (r *Result) SeedStats() SeedStats { return r.seedStats }

// canon returns the run's lazily created canonizer.
func (a *Analysis) canon() *canonizer {
	if a.cn == nil {
		a.cn = newCanonizer(a.prog)
	}
	return a.cn
}

// trySeed probes the seeder for a freshly created context. It always
// computes and indexes the canonical context key (the harvest and the
// stored-callee walk need it), and on a hit resolves the whole summary
// all-or-nothing: result graphs, measurements, par nodes and warning
// instructions. Any resolution failure is a miss — the context is then
// solved from scratch, which is always correct. With RecordPoints no
// context is seeded: every program point must come from a real solve.
func (a *Analysis) trySeed(e *ctxEntry) {
	if a.seeder == nil || a.opts.DisableContextCache || a.opts.RecordPoints {
		return
	}
	cn := a.canon()
	key, ok := cn.ctxKey(e.fn, e.Cp, e.Ip, e.ghostSrc)
	if !ok {
		return
	}
	e.canonKey = key
	if a.byKey == nil {
		a.byKey = map[string]*ctxEntry{}
	}
	a.byKey[key] = e
	sum := a.seeder.Lookup(e.fn.Name, key)
	if sum == nil {
		a.seedMisses++
		return
	}
	st := a.resolveSummary(sum)
	if st == nil {
		a.seedMisses++
		return
	}
	C, cok := cn.resolveGraph(sum.C)
	E, eok := cn.resolveGraph(sum.E)
	if !cok || !eok {
		a.seedMisses++
		return
	}
	e.seeded = st
	e.result.C = C
	e.result.E = E
	e.result.version = 1
	a.seedHits++
	if a.seedHitsByFn == nil {
		a.seedHitsByFn = map[string]int{}
	}
	a.seedHitsByFn[e.fn.Name]++

	// Replay the context's warnings: record them per-context (the harvest
	// of this run re-emits them) and emit globally new ones, preserving
	// the run-wide once-per-instruction deduplication.
	for _, w := range sum.Warnings {
		in, ok := cn.resolveInstr(w.Ref)
		if !ok {
			continue
		}
		e.recordWarn(in, w.Text)
		if !a.warnedUnk[in] {
			a.warnedUnk[in] = true
			a.warnings = append(a.warnings, w.Text)
		}
	}
}

// resolveSummary resolves a summary's measurements into the current
// table, all-or-nothing.
func (a *Analysis) resolveSummary(sum *Summary) *seedState {
	cn := a.canon()
	st := &seedState{sum: sum}
	for _, acc := range sum.Accesses {
		id, ok := cn.accID[accOrdKey{fn: sum.Fn, ord: acc.Ord}]
		if !ok {
			return nil
		}
		s := &AccessSample{AccID: id}
		for _, l := range acc.Locs {
			lid, ok := cn.resolveLoc(l)
			if !ok {
				return nil
			}
			s.Locs = append(s.Locs, lid)
		}
		st.access = append(st.access, s)
	}
	for _, p := range sum.Pars {
		n, ok := cn.resolveNode(sum.Fn, p.Node)
		if !ok {
			return nil
		}
		st.pars = append(st.pars, seedPar{node: n, iterations: p.Iterations, threads: p.Threads})
	}
	return st
}

// applySeed handles analyzeContext for a seeded entry, in every round:
// the retained result stands in for the solve, the stored measurements
// are injected under the current context id, and the stored callee keys
// are demanded, so the round visits every context the cold round would
// have. Every callee key is resolved before any is materialised. If one
// no longer resolves, the seed is dropped and applySeed reports !done:
// the caller then solves the context for real in this round, exactly as
// a cold run would.
func (x *exec) applySeed(e *ctxEntry) (done bool, err error) {
	a := x.a
	callees := make([]seedCallee, len(e.seeded.sum.Callees))
	for i, key := range e.seeded.sum.Callees {
		c, ok := a.resolveCallee(key)
		if !ok {
			a.dropSeed(e)
			return false, nil
		}
		callees[i] = c
	}
	e.doneRound = a.round
	for _, s := range e.seeded.access {
		a.metrics.access[accKey{acc: s.AccID, ctx: e.id}] = &AccessSample{AccID: s.AccID, CtxID: e.id, Locs: s.Locs}
	}
	for _, p := range e.seeded.pars {
		a.metrics.putPar(p.node, e.id, p.iterations, p.threads)
	}
	for _, c := range callees {
		ce := c.e
		if ce == nil {
			// Interning may find the context after all: an earlier callee's
			// solve can have created it.
			if ce, err = x.getContext(c.fn, c.Cp, c.Ip, c.ghostSrc); err != nil {
				return true, err
			}
		}
		if err := x.analyzeContext(ce); err != nil {
			return true, err
		}
	}
	return true, nil
}

// seedCallee is one resolved stored callee key: its existing context, or
// the inputs to intern it from.
type seedCallee struct {
	e        *ctxEntry
	fn       *ir.Func
	Cp, Ip   *ptgraph.Graph
	ghostSrc map[*locset.Block][]*locset.Block
}

// resolveCallee resolves one stored callee key, to the context holding
// that key or else to the inputs its summary records. It reports false
// when the seeder no longer holds the key or the inputs do not resolve in
// the current table.
func (a *Analysis) resolveCallee(key string) (seedCallee, bool) {
	if e, ok := a.byKey[key]; ok {
		return seedCallee{e: e}, true
	}
	sum := a.seeder.LookupKey(key)
	if sum == nil {
		return seedCallee{}, false
	}
	cn := a.canon()
	fn, ok := cn.fnByName[sum.Fn]
	Cp, cok := cn.resolveGraph(sum.Cp)
	Ip, iok := cn.resolveGraph(sum.Ip)
	ghostSrc, gok := cn.resolveGhosts(sum.Ghosts)
	if !ok || !cok || !iok || !gok {
		return seedCallee{}, false
	}
	return seedCallee{fn: fn, Cp: Cp, Ip: Ip, ghostSrc: ghostSrc}, true
}

// dropSeed turns a seed hit into a miss: the context is solved for real
// from now on. It keeps the retained result, which is the context's cold
// fixed-point value, so the solve can only confirm it.
func (a *Analysis) dropSeed(e *ctxEntry) {
	e.seeded = nil
	a.seedHits--
	a.seedMisses++
	if a.seedHitsByFn[e.fn.Name]--; a.seedHitsByFn[e.fn.Name] == 0 {
		delete(a.seedHitsByFn, e.fn.Name)
	}
}

// recordWarn stores one per-context warning occurrence (deduplicated per
// instruction within the context).
func (e *ctxEntry) recordWarn(in *ir.Instr, text string) {
	if e.warned == nil {
		e.warned = map[*ir.Instr]bool{}
	}
	if e.warned[in] {
		return
	}
	e.warned[in] = true
	e.warnRecs = append(e.warnRecs, ctxWarn{in: in, text: text})
}

// addCallee records a callee-context edge.
func (e *ctxEntry) addCallee(callee *ctxEntry) {
	if e.callees == nil {
		e.callees = map[*ctxEntry]bool{}
	}
	e.callees[callee] = true
}

// recordCallee records the callee-context edge of one call. Only the
// harvest reads the edges, so they are kept only when a seeder is
// attached.
func (x *exec) recordCallee(ctx *ctxEntry, callee *ctxEntry) {
	if x.a.seeder == nil || ctx == nil {
		return
	}
	ctx.addCallee(callee)
}

// exportSummaries harvests the summaries AnalyzeWithSeeder returns;
// analyze calls it once, at the end of a seeded run.
func (a *Analysis) exportSummaries() []*Summary {
	var out []*Summary
	for _, e := range a.ctxList {
		if e.doneRound != a.round || e.degraded {
			continue
		}
		if e.seeded != nil {
			out = append(out, e.seeded.sum)
			continue
		}
		if s := a.encodeSummary(e); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// encodeSummary renders one solved context as a canonical summary, or nil
// if anything fails to encode.
func (a *Analysis) encodeSummary(e *ctxEntry) *Summary {
	cn := a.canon()
	if e.canonKey == "" {
		key, ok := cn.ctxKey(e.fn, e.Cp, e.Ip, e.ghostSrc)
		if !ok {
			return nil
		}
		e.canonKey = key
	}
	sum := &Summary{Fn: e.fn.Name, Key: e.canonKey}
	var ok bool
	if sum.Cp, ok = cn.encodeGraph(e.Cp); !ok {
		return nil
	}
	if sum.Ip, ok = cn.encodeGraph(e.Ip); !ok {
		return nil
	}
	if sum.Ghosts, ok = cn.encodeGhosts(e.ghostSrc); !ok {
		return nil
	}
	if sum.C, ok = cn.encodeGraph(e.result.C); !ok {
		return nil
	}
	if sum.E, ok = cn.encodeGraph(e.result.E); !ok {
		return nil
	}
	for _, w := range e.warnRecs {
		ref, ok := cn.encodeInstr(w.in)
		if !ok {
			return nil
		}
		sum.Warnings = append(sum.Warnings, SummaryWarning{Ref: ref, Text: w.text})
	}
	for _, s := range a.samplesOf(e.id) {
		acc := SummaryAccess{Ord: cn.accOrd[s.AccID]}
		for _, l := range s.Locs {
			cl, ok := cn.encodeLoc(l)
			if !ok {
				return nil
			}
			acc.Locs = append(acc.Locs, cl)
		}
		sum.Accesses = append(sum.Accesses, acc)
	}
	for _, p := range a.parsOf(e.id) {
		sum.Pars = append(sum.Pars, SummaryPar{Node: p.NodeID, Iterations: p.Iterations, Threads: p.Threads})
	}
	for ce := range e.callees {
		if ce.canonKey == "" {
			key, ok := cn.ctxKey(ce.fn, ce.Cp, ce.Ip, ce.ghostSrc)
			if !ok {
				return nil
			}
			ce.canonKey = key
		}
		sum.Callees = append(sum.Callees, ce.canonKey)
	}
	sort.Strings(sum.Callees)
	return sum
}

// samplesOf returns the access samples recorded for one context, in
// deterministic access order.
func (a *Analysis) samplesOf(ctxID int) []*AccessSample {
	var out []*AccessSample
	for k, s := range a.metrics.access {
		if k.ctx == ctxID {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AccID < out[j].AccID })
	return out
}

// parsOf returns the par samples recorded for one context, in
// deterministic node order.
func (a *Analysis) parsOf(ctxID int) []*ParSample {
	var out []*ParSample
	for k, s := range a.metrics.par {
		if k.ctx == ctxID {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}
