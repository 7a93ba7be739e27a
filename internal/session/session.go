// Package session implements incremental analysis sessions: a
// pass-manager over the mtpa pipeline that stages compilation per
// top-level declaration and analysis per procedure context, keying every
// artifact by content hash and reusing whatever an edit provably could
// not have changed.
//
// Update(filename, src) runs the pipeline with four content-addressed
// reuse points, all backed by one bounded Store:
//
//	res| whole-file result   keyed by the source hash — a byte-identical
//	     re-request returns the previous result outright;
//	env| naming environment  keyed by the hash of every non-procedure
//	     segment — struct table plus cached declaration ASTs;
//	ast| procedure ASTs      keyed by ⟨environment, segment hash, anchor
//	     line⟩ — only edited (or line-shifted) procedures re-parse;
//	sum| context summaries   keyed by the canonical context key, valid
//	     while the owning procedure's dependency hash (dep.go) holds —
//	     the interprocedural fixed point re-solves only contexts whose
//	     transitive callee closure changed.
//
// Semantic analysis, IR lowering and flow-graph construction run fresh
// per update: they are whole-program passes whose outputs embed the
// run's location-set table, and they account for a few percent of
// pipeline time (the fixed point dominates). The correctness bar is
// bit-identity: a warm Update must be indistinguishable from a cold
// Compile+Analyze of the same source. Every reuse point is therefore
// all-or-nothing — and any input the incremental front end cannot
// handle with certainty (lexical errors, unsplittable token streams,
// parse or check failures) falls back to the monolithic cold pipeline,
// reproducing its diagnostics exactly.
package session

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"mtpa/internal/ast"
	"mtpa/internal/core"
	"mtpa/internal/errs"
	"mtpa/internal/flowinsens"
	"mtpa/internal/ir"
	"mtpa/internal/lexer"
	"mtpa/internal/parser"
	"mtpa/internal/ptgraph"
	"mtpa/internal/sem"
	"mtpa/internal/types"
)

// Compiled is the compile-stage output of one update (the fields of
// mtpa.Program, which the public wrapper re-assembles).
type Compiled struct {
	File     string
	AST      *ast.Program
	Info     *sem.Info
	IR       *ir.Program
	Warnings []string
}

// UpdateStats reports what one Update reused and what it recomputed.
type UpdateStats struct {
	// ResultCached is true when the whole-file fast path hit: the source
	// was byte-identical to a previous update and the stored result was
	// returned without recompiling or re-analysing.
	ResultCached bool
	// ColdCompile is true when the update fell back to the monolithic
	// pipeline (lexical error, unsplittable stream, or any parse/check
	// failure — the fallback reproduces cold diagnostics exactly).
	ColdCompile bool
	// SeederDisabled is true when summary seeding was turned off for this
	// update (cold fallback, a resource budget, the context-cache
	// ablation, or the memcpy gate).
	SeederDisabled bool

	// Compile-stage segment reuse counters.
	Segments    int
	ProcsParsed int
	ProcsReused int
	EnvReused   bool

	// Seed reports the summary-cache outcomes of the analysis run.
	Seed core.SeedStats
	// SummariesStored counts the context summaries harvested into the
	// store after the run.
	SummariesStored int
}

// Stats is the session-lifetime view.
type Stats struct {
	Updates    int
	SeedHits   int
	SeedMisses int
	Store      map[string]KindStats
}

// Session is a long-lived incremental analysis pipeline. It is safe for
// concurrent use; updates to different files proceed independently over
// the shared artifact store.
type Session struct {
	opts    core.Options
	optsKey string
	store   Artifacts

	mu         sync.Mutex
	updates    int
	seedHits   int
	seedMisses int
}

// New returns a session running every update with the given options.
// capacity bounds the artifact store (0 selects the default).
func New(opts core.Options, capacity int) *Session {
	return NewWithStore(opts, NewStore(capacity))
}

// NewWithStore returns a session over a caller-supplied artifact store.
// Passing the same store to several sessions shares every artifact kind
// between them: a tenant re-submitting a file another tenant already
// compiled (same name, content and options) hits the whole-file result
// cache, and unchanged procedures dedupe through the AST and summary
// caches. The store must be safe for concurrent use (Store is).
func NewWithStore(opts core.Options, store Artifacts) *Session {
	return &Session{
		opts:    opts,
		optsKey: fmt.Sprintf("%+v", opts),
		store:   store,
	}
}

// Options returns the session's analysis options.
func (s *Session) Options() core.Options { return s.opts }

// Stats returns cumulative session statistics.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Updates:    s.updates,
		SeedHits:   s.seedHits,
		SeedMisses: s.seedMisses,
		Store:      s.store.Stats(),
	}
}

// Update compiles and analyses one version of a file, reusing artifacts
// from previous updates wherever content hashes allow.
func (s *Session) Update(filename, src string) (*Compiled, *core.Result, UpdateStats, error) {
	return s.UpdateContext(context.Background(), filename, src)
}

// cachedRun is the whole-file fast-path artifact. The flow-insensitive
// tier-0 answer rides along, computed and frozen before the artifact is
// published: recomputing it on a later hit would intern fresh location
// sets into the (by then shared) table, racing with concurrent readers
// of the cached result — and a served tier-0 answer for a known file
// should be O(1) anyway.
//
// The result holds the run's answers only: the engine state that built
// them (contexts, call memo, flow graphs, canonizer) is
// garbage once the analysis returns, and the ghost expansion queries read
// is computed before it does. The served forms of those answers
// (fingerprint, rendered graph, race report) are derived lazily, once,
// into the Answers memo beside the result, so every hit and every tenant
// sharing the entry reuses them. The context summaries the run harvests
// are stored as their own "sum|" entries, not through the result. The
// store's capacity counts entries, not bytes.
type cachedRun struct {
	compiled *Compiled
	result   *core.Result
	answers  *Answers
	fiGraph  *ptgraph.Graph
	fiIters  int
}

// UpdateContext is Update with cooperative cancellation. Malformed input
// returns an *errs.ParseError identical to the cold pipeline's; analysis
// failures return an *errs.AnalysisError (or *errs.ICEError), as in
// Program.AnalyzeContext.
func (s *Session) UpdateContext(ctx context.Context, filename, src string) (*Compiled, *core.Result, UpdateStats, error) {
	st, err := s.StageUpdate(filename, src)
	if err != nil {
		return nil, nil, st.stats, err
	}
	res, stats, err := s.RunStaged(ctx, st, nil)
	if err != nil {
		return nil, nil, stats, err
	}
	return st.comp, res, stats, nil
}

// Staged is the synchronous front half of one update: the compiled
// program with the reuse decisions made, ready for its analysis run.
// The tiered query path stages synchronously (tier-0 answers come from
// the staged IR) and runs the fixpoint half asynchronously; a staged
// update is used by exactly one RunStaged call.
type Staged struct {
	comp   *Compiled
	cached *cachedRun // non-nil: whole-file hit, RunStaged is O(1)
	stats  UpdateStats
	seeder core.Seeder
	deps   map[string]string
	resKey string
	// answers is the published run's answer memo, set by a successful
	// RunStaged (the cached run's on a whole-file hit).
	answers *Answers

	fiOnce  sync.Once
	fiGraph *ptgraph.Graph
	fiIters int
}

// Compiled returns the staged compile-stage output.
func (st *Staged) Compiled() *Compiled { return st.comp }

// Refined returns the cached flow-sensitive result when the whole-file
// fast path hit (the refinement already exists), nil otherwise.
func (st *Staged) Refined() *core.Result {
	if st.cached == nil {
		return nil
	}
	return st.cached.result
}

// Answers returns the served-answer memo of the staged update's result:
// the cached run's on a whole-file hit, the published run's after a
// successful RunStaged, nil before that or after a failure. Call it on
// the goroutine that ran RunStaged (or after synchronising with it).
func (st *Staged) Answers() *Answers {
	if st.cached != nil {
		return st.cached.answers
	}
	return st.answers
}

// FlowInsens returns the staged program's flow-insensitive points-to
// graph and iteration count, computing them on first use. Passing the
// graph to RunStaged shares it with the run's Budget degradation
// fallback, so a tiered update computes flowinsens exactly once. The
// graph is frozen (ptgraph.Graph.Freeze) before it is returned: it will
// be shared between the tier-0 answer, the refinement and any number of
// concurrent readers. On a whole-file cache hit the graph stored with
// the cached run is returned without any computation — flowinsens
// interns location sets into the program table, which is shared and
// read-only once the artifact is published.
func (st *Staged) FlowInsens() (*ptgraph.Graph, int) {
	if st.cached != nil {
		return st.cached.fiGraph, st.cached.fiIters
	}
	st.fiOnce.Do(func() {
		fi := flowinsens.Analyze(st.comp.IR)
		fi.Graph.Freeze()
		st.fiGraph, st.fiIters = fi.Graph, fi.Iterations
	})
	return st.fiGraph, st.fiIters
}

// StageUpdate runs the synchronous half of an update: the whole-file
// cache probe, the (incremental) compile, and the seeder gating. The
// returned Staged is always non-nil, so callers can read stage stats
// even on a compile error.
func (s *Session) StageUpdate(filename, src string) (*Staged, error) {
	st := &Staged{}
	sum := sha256.Sum256([]byte(src))
	fileHash := hex.EncodeToString(sum[:16])
	st.resKey = "res|" + filename + "|" + s.optsKey + "|" + fileHash
	if v, ok := s.store.Get(st.resKey); ok {
		st.cached = v.(*cachedRun)
		st.comp = st.cached.compiled
		st.stats.ResultCached = true
		return st, nil
	}

	comp, deps, err := s.compile(filename, src, &st.stats)
	if err != nil {
		s.finish(&st.stats)
		return st, err
	}
	st.comp, st.deps = comp, deps

	switch {
	case deps == nil: // cold-compiled: no segment hashes to validate against
		st.stats.SeederDisabled = true
	case s.opts.Budget != (core.Budget{}):
		// Degradation points depend on how much work each solve performs;
		// seeding changes the work, so budgeted runs stay cold to keep
		// warm ≡ cold exact.
		st.stats.SeederDisabled = true
	case s.opts.DisableContextCache:
		st.stats.SeederDisabled = true
	case usesMemcpy(comp.IR):
		// The memcpy transfer sweeps the location-set table, making its
		// output sensitive to which location sets other solves happened
		// to materialise; a seeded run materialises fewer. Programs using
		// memcpy are analysed cold.
		st.stats.SeederDisabled = true
	default:
		st.seeder = &storeSeeder{
			store:  s.store,
			prefix: "sum|" + filename + "|" + s.optsKey + "|",
			deps:   deps,
		}
	}
	return st, nil
}

// RunStaged runs the analysis half of a staged update: a whole-file hit
// returns the cached result outright; otherwise the interprocedural
// fixpoint runs (seeded per the stage decisions) and its artifacts are
// stored. fi, when non-nil, is a precomputed flow-insensitive graph the
// engine adopts for Budget degradation (see Staged.FlowInsens).
func (s *Session) RunStaged(ctx context.Context, st *Staged, fi *ptgraph.Graph) (*core.Result, UpdateStats, error) {
	stats := st.stats
	if st.cached != nil {
		s.finish(&stats)
		return st.cached.result, stats, nil
	}

	res, sums, aerr := core.AnalyzeWithSeederFI(ctx, st.comp.IR, s.opts, st.seeder, fi)
	if aerr != nil {
		s.finish(&stats)
		var ice *errs.ICEError
		if errors.As(aerr, &ice) {
			return nil, stats, ice
		}
		return nil, stats, &errs.AnalysisError{File: st.comp.File, Err: aerr}
	}
	stats.Seed = res.SeedStats()

	for _, sm := range sums {
		dh, ok := st.deps[sm.Fn]
		if !ok {
			continue
		}
		s.store.Put("sum|"+st.comp.File+"|"+s.optsKey+"|"+sm.Key, &storedSum{sum: sm, fn: sm.Fn, depHash: dh})
		stats.SummariesStored++
	}
	// The tier-0 answer is computed (or reused from the tiered staging)
	// before the run is published: after the Put, the compiled program and
	// its location-set table may be read concurrently by other sessions
	// sharing the store, so no pass that interns into the table may run on
	// it again.
	fiG, fiIters := st.FlowInsens()
	// Freeze the result's graphs too: a published result is served to
	// every later hit, and concurrent readers Clone or format its graphs.
	res.Freeze()
	st.answers = &Answers{res: res}
	s.store.Put(st.resKey, &cachedRun{compiled: st.comp, result: res, answers: st.answers, fiGraph: fiG, fiIters: fiIters})
	s.finish(&stats)
	return res, stats, nil
}

func (s *Session) finish(stats *UpdateStats) {
	s.mu.Lock()
	s.updates++
	s.seedHits += stats.Seed.Hits
	s.seedMisses += stats.Seed.Misses
	s.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Compile stage

// envState is one naming environment: the struct table and the cached
// declaration ASTs of every non-procedure segment, retained as a unit
// (cached procedure ASTs reference the struct table by identity, so they
// are keyed under the environment's hash).
//
// An envState is shared mutable state: parsing a procedure segment may
// intern forward-referenced struct shells into structs
// (parser.ParseDecl), and every update's sem.Check writes symbol
// bindings into the cached declaration ASTs in place. Single-session
// sequential updates never observed this, but two sessions sharing one
// artifact store (the multi-tenant daemon) reach the same envState
// concurrently — so mu serialises the whole environment-dependent back
// half of an update (segment parsing, AST stitching, checking,
// lowering). The fixpoint, which dominates the pipeline, runs outside
// the lock.
//
// id is a process-unique instance stamp, included in the ast| cache keys
// of procedure ASTs parsed against this environment: if the env entry is
// evicted and rebuilt, the fresh instance gets a fresh id and never
// shares cached ASTs (or their mutex) with sessions still holding the
// old instance.
type envState struct {
	id      uint64
	mu      sync.Mutex
	structs map[string]*types.Type
	others  map[string]*segDecls
}

// envSeq stamps envState instances.
var envSeq atomic.Uint64

// segDecls is the parse result of one segment.
type segDecls struct {
	structs []*ast.StructDecl
	globals []*ast.VarDecl
	funcs   []*ast.FuncDecl
}

func segCacheKey(seg parser.Segment) string {
	return seg.Hash + "|" + strconv.Itoa(seg.Anchor)
}

// errColdFallback signals that the incremental front end cannot handle
// this input and the monolithic pipeline must run instead.
var errColdFallback = errors.New("session: incremental front end unavailable")

// compile runs the incremental front end, falling back to the cold
// pipeline when it cannot proceed bit-identically. On success deps holds
// the per-procedure dependency hashes (nil after a cold fallback).
func (s *Session) compile(filename, src string, stats *UpdateStats) (*Compiled, map[string]string, error) {
	comp, deps, err := s.compileSegmented(filename, src, stats)
	if err == nil {
		return comp, deps, nil
	}
	if !errors.Is(err, errColdFallback) {
		return nil, nil, err
	}
	stats.ColdCompile = true
	comp, err = compileCold(filename, src)
	if err != nil {
		return nil, nil, err
	}
	return comp, nil, nil
}

// compileCold replicates mtpa.Compile exactly (same stages, same error
// wrapping), so fallback diagnostics are indistinguishable from the
// one-shot API's.
func compileCold(filename, src string) (prog *Compiled, err error) {
	defer errs.Recover(&err)
	astProg, perr := parser.Parse(filename, src)
	if perr != nil {
		return nil, &errs.ParseError{File: filename, Stage: "parse", Diags: diagLines(perr), Err: perr}
	}
	info, diags := sem.Check(astProg)
	var warnings []string
	for _, d := range diags {
		if d.Warning {
			warnings = append(warnings, d.Error())
		}
	}
	if hard := diags.HardErrors(); len(hard) > 0 {
		return nil, &errs.ParseError{File: filename, Stage: "check", Diags: diagLines(hard), Err: hard}
	}
	irProg, lerr := ir.Lower(info)
	if lerr != nil {
		return nil, &errs.ParseError{File: filename, Stage: "lower", Diags: diagLines(lerr), Err: lerr}
	}
	warnings = append(warnings, irProg.Warnings...)
	return &Compiled{File: filename, AST: astProg, Info: info, IR: irProg, Warnings: warnings}, nil
}

// diagLines mirrors mtpa.diagLines.
func diagLines(err error) []string {
	switch l := err.(type) {
	case parser.ErrorList:
		out := make([]string, len(l))
		for i, e := range l {
			out[i] = e.Error()
		}
		return out
	case sem.ErrorList:
		out := make([]string, len(l))
		for i, e := range l {
			out[i] = e.Error()
		}
		return out
	}
	return []string{err.Error()}
}

// compileSegmented is the per-declaration front end: segment the token
// stream, reuse the naming environment and unchanged procedure ASTs,
// parse only what changed, then run sem, lowering and flow-graph
// construction fresh over the stitched program. Any error it cannot
// guarantee to report identically to the cold pipeline returns
// errColdFallback.
func (s *Session) compileSegmented(filename, src string, stats *UpdateStats) (c *Compiled, deps map[string]string, err error) {
	defer errs.Recover(&err)
	lx := lexer.New(filename, src)
	toks := lx.All()
	if len(lx.Errors()) > 0 {
		return nil, nil, errColdFallback
	}
	segs, ok := parser.SegmentTokens(toks)
	if !ok {
		return nil, nil, errColdFallback
	}
	stats.Segments = len(segs)

	// Resolve the naming environment: every non-procedure segment, hashed
	// with anchors (their positions appear in diagnostics and lowered
	// initialisers).
	var envB []byte
	for _, seg := range segs {
		if seg.Kind != parser.SegProc {
			envB = appendSeg(envB, seg)
		}
	}
	envHash := digest(envB)
	envKey := "env|" + filename + "|" + envHash

	var env *envState
	if v, ok := s.store.Get(envKey); ok {
		env = v.(*envState)
		stats.EnvReused = true
	} else {
		env = &envState{id: envSeq.Add(1), structs: map[string]*types.Type{}, others: map[string]*segDecls{}}
		for _, seg := range segs {
			if seg.Kind == parser.SegProc {
				continue
			}
			decls, perr := parseSegment(filename, seg, env.structs)
			if perr != nil {
				return nil, nil, errColdFallback
			}
			env.others[segCacheKey(seg)] = decls
		}
		s.store.Put(envKey, env)
	}

	// Everything below reads and writes environment-owned state: segment
	// parses intern struct shells into env.structs, and sem.Check binds
	// symbols into the cached declaration ASTs in place. Concurrent
	// updates through the same environment (same or different session —
	// the daemon shares one store between tenants) serialise here; see
	// envState.
	env.mu.Lock()
	defer env.mu.Unlock()

	// Parse changed procedure segments; reuse cached ASTs for the rest.
	// Cached declarations carry absolute positions, so the key includes
	// the anchor line — a procedure that merely moved re-parses.
	astProg := &ast.Program{File: filename}
	procSegs := map[string]segKey{}
	globalSegs := map[string]string{}
	var allGlobalsB []byte
	// The dependency-hash environment component covers struct definitions,
	// prototypes and forward declarations only — global declarations are
	// tracked per-name (globalSegs) so a global edit flushes just its
	// referents, not every summary. Distinct from envHash above, which
	// keys the compile-stage environment and must cover everything.
	var depEnvB []byte
	for _, seg := range segs {
		var decls *segDecls
		if seg.Kind == parser.SegProc {
			// The env instance id ties cached procedure ASTs to the exact
			// envState (and mutex) they were parsed under; see envState.
			astKey := "ast|" + filename + "|" + envHash + "|" + strconv.FormatUint(env.id, 10) + "|" + segCacheKey(seg)
			if v, ok := s.store.Get(astKey); ok {
				decls = v.(*segDecls)
				stats.ProcsReused++
			} else {
				var perr error
				decls, perr = parseSegment(filename, seg, env.structs)
				if perr != nil {
					return nil, nil, errColdFallback
				}
				if len(decls.funcs) != 1 || decls.funcs[0].Body == nil ||
					len(decls.structs) != 0 || len(decls.globals) != 0 {
					return nil, nil, errColdFallback
				}
				s.store.Put(astKey, decls)
				stats.ProcsParsed++
			}
			procSegs[decls.funcs[0].Name] = segKey{hash: seg.Hash, anchor: seg.Anchor}
		} else {
			decls = env.others[segCacheKey(seg)]
			if decls == nil {
				return nil, nil, errColdFallback
			}
			for _, g := range decls.globals {
				globalSegs[g.Name] = seg.Hash
			}
			if len(decls.globals) > 0 {
				allGlobalsB = appendSeg(allGlobalsB, seg)
			}
			if len(decls.globals) == 0 || len(decls.structs) > 0 || len(decls.funcs) > 0 {
				depEnvB = appendSeg(depEnvB, seg)
			}
		}
		astProg.Structs = append(astProg.Structs, decls.structs...)
		astProg.Globals = append(astProg.Globals, decls.globals...)
		astProg.Funcs = append(astProg.Funcs, decls.funcs...)
	}

	// The back half of the pipeline runs whole-program fresh. Check and
	// lowering failures fall back cold: the stitched AST is equivalent,
	// but routing errors through one code path guarantees diagnostic
	// parity on every failing input.
	info, diags := sem.Check(astProg)
	var warnings []string
	for _, d := range diags {
		if d.Warning {
			warnings = append(warnings, d.Error())
		}
	}
	if len(diags.HardErrors()) > 0 {
		return nil, nil, errColdFallback
	}
	irProg, lerr := ir.Lower(info)
	if lerr != nil {
		return nil, nil, errColdFallback
	}
	warnings = append(warnings, irProg.Warnings...)

	deps = computeDeps(&depInput{
		irProg:         irProg,
		procSegs:       procSegs,
		globalSegs:     globalSegs,
		envHash:        digest(depEnvB),
		allGlobalsHash: digest(allGlobalsB),
	})
	return &Compiled{File: filename, AST: astProg, Info: info, IR: irProg, Warnings: warnings}, deps, nil
}

// appendSeg appends a segment's hashed identity, "hash|anchor\n".
func appendSeg(b []byte, seg parser.Segment) []byte {
	b = append(b, seg.Hash...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(seg.Anchor), 10)
	return append(b, '\n')
}

// parseSegment parses one segment's tokens against the shared struct
// table.
func parseSegment(filename string, seg parser.Segment, structs map[string]*types.Type) (*segDecls, error) {
	var tmp ast.Program
	if err := parser.ParseDecl(filename, seg.Toks, structs, &tmp); err != nil {
		return nil, err
	}
	return &segDecls{structs: tmp.Structs, globals: tmp.Globals, funcs: tmp.Funcs}, nil
}

// usesMemcpy reports whether any lowered instruction calls the memcpy
// builtin (see the seeding gate in UpdateContext).
func usesMemcpy(irProg *ir.Program) bool {
	for _, fn := range irProg.Funcs {
		for _, n := range fn.AllNodes {
			for _, in := range n.Instrs {
				if in.Call != nil && in.Call.Builtin == sem.BuiltinMemcpy {
					return true
				}
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// The summary seeder

// storedSum is one retained context summary with its validity stamp.
type storedSum struct {
	sum     *core.Summary
	fn      string
	depHash string
}

// storeSeeder adapts the artifact store to core.Seeder for one update:
// a stored summary is served only while its procedure's dependency hash
// matches the current program's.
type storeSeeder struct {
	store  Artifacts
	prefix string
	deps   map[string]string
}

func (s *storeSeeder) Lookup(fn, key string) *core.Summary {
	v, ok := s.store.Get(s.prefix + key)
	if !ok {
		return nil
	}
	e := v.(*storedSum)
	if e.fn != fn || e.depHash == "" || e.depHash != s.deps[fn] {
		return nil
	}
	return e.sum
}

func (s *storeSeeder) LookupKey(key string) *core.Summary {
	v, ok := s.store.Get(s.prefix + key)
	if !ok {
		return nil
	}
	e := v.(*storedSum)
	if e.depHash == "" || e.depHash != s.deps[e.fn] {
		return nil
	}
	return e.sum
}

// ---------------------------------------------------------------------------

// SummaryCount reports how many context summaries the store currently
// holds (test helper; -1 when the session runs over a custom Artifacts
// implementation that is not a *Store).
func (s *Session) SummaryCount() int {
	st, ok := s.store.(*Store)
	if !ok {
		return -1
	}
	return st.CountKind("sum")
}
