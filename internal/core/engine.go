// The fixed-point analysis engine (§3.5). Program bodies are lowered once
// to the explicit parallel flow graphs of internal/pfg; each body is then
// solved by the generic worklist solver of internal/dataflow, instantiated
// with the ⟨C,I,E⟩ triple lattice and the transfer functions of Figures 3
// and 4 (see solve.go). This file holds the interprocedural driver: the
// outer recursion rounds, the context cache of Definition 2, and the
// per-context procedure analysis.

package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mtpa/internal/errs"
	"mtpa/internal/flowinsens"
	"mtpa/internal/ir"
	"mtpa/internal/locset"
	"mtpa/internal/pfg"
	"mtpa/internal/ptgraph"
)

// Mode selects the analysis algorithm.
type Mode int

const (
	// Multithreaded is the paper's algorithm: par constructs are solved
	// with the interference fixed point of Figure 6.
	Multithreaded Mode = iota
	// Sequential is the unsound comparison baseline of §4.4: parbegin and
	// parend vertices are ignored and threads are analysed in the order in
	// which they appear in the program text. It upper-bounds the precision
	// attainable by the ideal Interleaved algorithm.
	Sequential
)

func (m Mode) String() string {
	if m == Sequential {
		return "Sequential"
	}
	return "Multithreaded"
}

// Options configures an analysis run.
type Options struct {
	Mode Mode

	// DisableContextCache re-analyses procedures at every call site even
	// when the multithreaded input context has been seen before (ablation).
	DisableContextCache bool
	// DisableStrongUpdates turns every update into a weak update
	// (ablation).
	DisableStrongUpdates bool
	// DisableGhostMerging turns off the §3.10.3 merging of ghost location
	// sets that correspond to the same actual location set (ablation; the
	// MaxContexts valve guards against the resulting non-termination on
	// programs that build linked structures on the call stack).
	DisableGhostMerging bool
	// DisableCallMemo turns off the call-site transfer memo (memo.go):
	// every call-vertex revisit then re-runs reachability, mapping,
	// projection and expansion even when its ⟨C, I⟩ inputs are unchanged
	// (ablation; results are bit-identical either way). The memo is also
	// off whenever DisableContextCache is set.
	DisableCallMemo bool
	// DisableSeqFastPath turns off the sequential fast path (ablation;
	// overridable process-wide with MTPA_SEQ_FASTPATH=0). When a
	// reachability pass over the IR call graph proves that no par or
	// parfor construct can execute (ir.Program.ParReachable, conservative
	// over function pointers), the engine runs an interference-free mode:
	// every fact's I component is one shared empty graph and every solve's
	// E component is one shared accumulator, so fact merges union only C
	// and facts never re-queue on created-edge growth. Fingerprints,
	// warnings and samples are bit-identical with the fast path on or off
	// (the trajectory differences are confined to run-shape counters such
	// as SolverSteps and the memo hit/miss split). The fast path is also
	// off under RecordPoints, which needs a distinct E at every program
	// point.
	DisableSeqFastPath bool

	// Deprecated: has no effect; the engine is sequential.
	ParWorkers int
	// Deprecated: has no effect; the engine is sequential.
	FixpointWorkers int

	// MaxRounds bounds the outer recursion fixed point (0 = default 1000).
	MaxRounds int
	// MaxContexts bounds the number of analysis contexts (0 = default
	// 100000); exceeding it returns an error.
	MaxContexts int

	// RecordPoints derives the ⟨C,I,E⟩ triple at every program point from
	// the solver facts of the fixed point's final round, for inspection,
	// golden tests and the differential soundness checks
	// (memory-proportional to program points × contexts). Summary seeding
	// is off under RecordPoints: every point must come from a real solve.
	RecordPoints bool

	// Budget bounds the resources one run may consume. Exceeding a budget
	// does not fail the run: the offending procedure analysis degrades to
	// the flow-insensitive result (see Degradation) and the run completes.
	Budget Budget
}

// Budget bounds the resources of one analysis run. A zero field means
// unbounded. Budgets degrade rather than fail: when one is exceeded, the
// procedure analysis that tripped it falls back to the sound
// flow-insensitive over-approximation of internal/flowinsens and the run
// records a Degradation instead of returning an error. (Cancellation via
// AnalyzeContext's ctx, by contrast, aborts the whole run with the
// context's error.)
type Budget struct {
	// MaxSolverSteps bounds the worklist chain transfers of a single
	// procedure-context analysis (each nested par-region solve counts
	// against its enclosing procedure's budget; callee procedures get a
	// fresh budget).
	MaxSolverSteps int
	// MaxGraphNodes bounds the global location-set table size.
	MaxGraphNodes int
	// MaxWallTime bounds the whole run's wall-clock time.
	MaxWallTime time.Duration
}

// budgetError signals an exceeded resource budget inside a solve. It never
// escapes the engine: analyzeContext converts it into a Degradation.
type budgetError struct {
	reason string
}

func (e *budgetError) Error() string { return "core: budget exceeded: " + e.reason }

// Degradation records that one procedure-context analysis exceeded its
// budget and fell back to the flow-insensitive result.
type Degradation struct {
	Proc   string // procedure name
	Ctx    int    // analysis context id
	Reason string // which budget tripped, e.g. "solver steps > 1000"
}

func (o *Options) maxRounds() int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 1000
}

// envSeqFastPathOff caches the MTPA_SEQ_FASTPATH override, read once per
// process: "0" disables the sequential fast path for the whole test
// binary (the ablation CI jobs use it), anything else leaves the
// per-Options default in force.
var envSeqFastPathOff = os.Getenv("MTPA_SEQ_FASTPATH") == "0"

// seqFastPathWanted reports whether this run may use the sequential fast
// path, before the per-program eligibility proof.
func (o *Options) seqFastPathWanted() bool {
	return !o.DisableSeqFastPath && !envSeqFastPathOff && !o.RecordPoints
}

func (o *Options) maxContexts() int {
	if o.MaxContexts > 0 {
		return o.MaxContexts
	}
	return 100000
}

// callResult is the cached analysis result of a procedure in one context:
// the output points-to graph C′_p and the created edges E′_p (the return
// value r_p is carried inside C′_p). version counts the times the result
// grew; the call-site memo uses it to detect that a cached expansion of
// this result is out of date (an in-progress recursive context can grow
// mid-round).
type callResult struct {
	C       *ptgraph.Graph
	E       *ptgraph.Graph
	version uint64
}

func newCallResult() *callResult {
	return &callResult{C: ptgraph.New(), E: ptgraph.New()}
}

// ctxEntry is one multithreaded analysis context ⟨C_p, I_p⟩ of a procedure
// (Definition 2) together with its current best result.
type ctxEntry struct {
	id   int
	fn   *ir.Func
	hash uint64   // bucket key: mix of Cp.Hash, Ip.Hash and the ghost signature
	sig  []uint64 // exact ghost-source signature (sorted, canonical)
	Cp   *ptgraph.Graph
	Ip   *ptgraph.Graph

	// ghostSrc maps each ghost block appearing in this context to the
	// actual (source-program) blocks it stands for, used for the merged
	// metric of Table 4 and for ghost merging in deeper calls.
	ghostSrc map[*locset.Block][]*locset.Block

	result     *callResult
	inProgress bool
	doneRound  int  // last round that solved or seeded this context
	degraded   bool // a budget excess degraded this context (recorded once)

	// memo is this context's shard of the call-site transfer memo
	// (memo.go): every memoKey names the calling context, so each entry
	// belongs to exactly one shard and the memo dies with its context.
	memo map[callKey][]*memoEntry

	// Summary-seeding state (seed.go), populated only when a Seeder is
	// attached: the canonical context key, the resolved summary standing in
	// for this context's solves, and the per-context warning and
	// callee-context records the harvest exports (the callee edges are
	// those of the context's latest solve).
	canonKey string
	seeded   *seedState
	warned   map[*ir.Instr]bool
	warnRecs []ctxWarn
	callees  map[*ctxEntry]bool
}

// Analysis is a single analysis run over one program.
type Analysis struct {
	prog *ir.Program
	tab  *locset.Table
	flow *pfg.Program
	opts Options

	entries map[*ir.Func]map[uint64][]*ctxEntry
	ctxList []*ctxEntry

	// memoHits and memoMisses count the call-site memo probes across all
	// rounds; the memo entries themselves live sharded on their calling
	// context (ctxEntry.memo).
	memoHits   int
	memoMisses int

	// rootBlocks caches the always-nameable reachability roots (globals,
	// private globals, strings, functions, unk); these block kinds all
	// exist before the analysis starts, so the slice is built once,
	// lazily, on the first call-site reachability pass.
	rootBlocks []*locset.Block
	rootsOnce  sync.Once

	round   int
	changed bool
	metrics *Metrics
	// facts holds the per-vertex solver snapshots of the current round
	// (metrics.go); deriveMetrics turns the final round's into Metrics.
	facts map[FactKey]*Triple

	// seqFast marks the interference-free fast-path mode: the program has
	// no reachable par/parfor (ir.Program.ParReachable), so every fact's I
	// is the shared emptyI and every solve threads one E accumulator
	// through its facts instead of cloning and merging per-fact E graphs
	// (see bodyProblem in solve.go). emptyI is never mutated.
	seqFast bool
	emptyI  *ptgraph.Graph

	// Cancellation and budgets. polling is true when a context or budget
	// is attached; only then do solves install a dataflow poll (the
	// default path stays bit-identical and overhead-free). totalSteps
	// counts chain transfers across the run; degraded records every
	// budget-tripped procedure context. The flow-insensitive fallback
	// graph is computed at most once, on first degradation.
	ctx        context.Context
	deadline   time.Time // zero when Budget.MaxWallTime is unset
	polling    bool
	totalSteps atomic.Int64
	degraded   []Degradation
	fiOnce     sync.Once
	fiGraph    *ptgraph.Graph
	// fiPre, when non-nil, is a flow-insensitive graph precomputed by the
	// caller (the tiered query API computes it for the tier-0 answer and
	// shares it here), so Budget degradation never recomputes it.
	fiPre *ptgraph.Graph

	warnings     []string
	warnedUnk    map[*ir.Instr]bool
	hasPrivates  bool
	privBlocks   map[*locset.Block]bool
	procAnalyses int

	// hasDetached marks that a region with detached (join-less) threads is
	// reachable: detached threads outlive their creating region, so the
	// engine extends the interference environment of everything downstream
	// of the region and of every call that may have started one (par.go,
	// interproc.go). False on every structured program, keeping those
	// bit-identical.
	hasDetached bool

	// Summary seeding (seed.go). seeder is nil on plain Analyze runs; cn is
	// the lazily built canonical encoder; byKey indexes every context with
	// a canonical key, for the stored-callee walk of seeded contexts.
	seeder       Seeder
	cn           *canonizer
	byKey        map[string]*ctxEntry
	seedHits     int
	seedMisses   int
	seedHitsByFn map[string]int
}

// roots returns the lazily built reachability root slice.
func (a *Analysis) roots() []*locset.Block {
	a.rootsOnce.Do(func() {
		for _, b := range a.tab.Blocks() {
			switch b.Kind {
			case locset.KindGlobal, locset.KindPrivateGlobal, locset.KindString, locset.KindFunc, locset.KindUnk:
				a.rootBlocks = append(a.rootBlocks, b)
			}
		}
	})
	return a.rootBlocks
}

// Result is the outcome of a whole-program analysis.
type Result struct {
	Prog     *ir.Program
	Table    *locset.Table
	Opts     Options
	Metrics  *Metrics
	Warnings []string
	Rounds   int

	// MainOut is the points-to triple at the exit of main.
	MainOut *Triple

	// ProcAnalyses counts how many times a procedure body was analysed
	// across all rounds (cache hits and seeded contexts excluded). With
	// the context cache on, each context is analysed at most once per
	// round, so ProcAnalyses ≤ Rounds × ContextsTotal().
	ProcAnalyses int

	// Degraded lists every procedure context whose analysis exceeded a
	// resource budget and fell back to the flow-insensitive result. Empty
	// on an unbudgeted or within-budget run; when non-empty the result is
	// still sound but less precise, and golden comparisons do not apply.
	Degraded []Degradation

	// FastPath reports that the run used the interference-free sequential
	// fast path (no par/parfor reachable from main; see
	// Options.DisableSeqFastPath). The results are bit-identical either
	// way; the flag only describes how they were computed.
	FastPath bool

	// What the accessors need, copied out of the engine when the run ends
	// so that none of the engine's scaffolding (contexts, call memo,
	// flow graphs, canonizer) outlives analyze.
	contextsTotal int
	contextsByFn  map[*ir.Func]int
	seedStats     SeedStats

	// fp memoises Fingerprint.
	fpOnce sync.Once
	fp     string
}

// Freeze marks every points-to graph the result exposes as shared
// (ptgraph.Graph.Freeze), so concurrent readers may Clone and format
// them without coordination. The incremental session freezes a result
// before publishing it to a (possibly shared) artifact store, where any
// number of tenants may read it at once. All queries remain valid on a
// frozen result.
func (r *Result) Freeze() *Result {
	if r.MainOut != nil {
		r.MainOut.Freeze()
	}
	return r
}

// Analyze runs the analysis to a fixed point. Every round records
// per-context solver facts; the precision measurements are derived from
// those of the final round, the one that changed nothing.
func Analyze(prog *ir.Program, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), prog, opts)
}

// AnalyzeContext is Analyze with cooperative cancellation: the worklist
// solver, the par fixed point and the interprocedural recursion all poll
// ctx and unwind promptly (typically within one chain transfer) when it is
// cancelled, returning the context's error. Budget excesses, by contrast,
// degrade the offending procedure instead of failing (see Budget). The
// function never panics: internal invariant violations are converted to
// *errs.ICEError by a recover shim.
func AnalyzeContext(ctx context.Context, prog *ir.Program, opts Options) (res *Result, err error) {
	res, _, err = analyze(ctx, prog, opts, nil, nil)
	return res, err
}

// AnalyzeContextFI is AnalyzeContext with a caller-precomputed
// flow-insensitive graph. The tiered query API serves fi as its tier-0
// answer and passes it here so a Budget degradation during the refinement
// reuses it instead of recomputing flowinsens from scratch; the graph
// must be flowinsens.Analyze(prog).Graph (it is trusted, not checked) and
// must not be mutated afterwards.
func AnalyzeContextFI(ctx context.Context, prog *ir.Program, opts Options, fi *ptgraph.Graph) (res *Result, err error) {
	res, _, err = analyze(ctx, prog, opts, nil, fi)
	return res, err
}

// analyze is the shared driver behind AnalyzeContext, AnalyzeContextFI
// and AnalyzeWithSeeder (seed.go); with a nil seeder and nil fi they are
// all identical. sums is the summary harvest of a seeded run (see
// AnalyzeWithSeeder); it is handed back rather than kept in res, so a
// cached result does not keep summaries its store has since evicted.
func analyze(ctx context.Context, prog *ir.Program, opts Options, seeder Seeder, fi *ptgraph.Graph) (res *Result, sums []*Summary, err error) {
	defer errs.Recover(&err)
	if prog.Main == nil {
		return nil, nil, fmt.Errorf("core: program has no main function")
	}
	a := &Analysis{
		prog:       prog,
		tab:        prog.Table,
		flow:       pfg.BuildProgram(prog),
		opts:       opts,
		entries:    map[*ir.Func]map[uint64][]*ctxEntry{},
		warnedUnk:  map[*ir.Instr]bool{},
		metrics:    newMetrics(),
		privBlocks: map[*locset.Block]bool{},
		seeder:     seeder,
		fiPre:      fi,
	}
	if opts.seqFastPathWanted() && !prog.ParReachable() {
		a.seqFast = true
		a.emptyI = ptgraph.New()
	}
	if prog.HasDetachedThreads && prog.ParReachable() {
		// A detached thread races with every statement downstream of its
		// creation point — code its region solve never sees. The
		// flow-insensitive graph over-approximates every edge any code ever
		// creates, so it serves as the thread's unseen-interference
		// environment (par.go). Computing it interns location sets into the
		// shared table, so it happens here, eagerly, at a fixed point in
		// the run: the table's ID assignment stays deterministic.
		a.hasDetached = true
		a.flowinsensGraph()
	}
	for _, b := range prog.Table.Blocks() {
		if b.Kind == locset.KindPrivateGlobal {
			a.privBlocks[b] = true
			a.hasPrivates = true
		}
	}
	a.ctx = ctx
	if opts.Budget.MaxWallTime > 0 {
		a.deadline = time.Now().Add(opts.Budget.MaxWallTime)
	}
	a.polling = ctx.Done() != nil || opts.Budget != (Budget{})

	rounds := 0
	var out *Triple
	for {
		rounds++
		if rounds > a.opts.maxRounds() {
			return nil, nil, fmt.Errorf("core: recursion fixed point did not converge after %d rounds", a.opts.maxRounds())
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		a.round = rounds
		a.changed = false
		// The final round solves every context it demands against the
		// fixed point, so its facts and samples are the measurements. Each
		// round starts them afresh: a context demanded only in an earlier
		// round must leave nothing behind.
		a.metrics.resetRound()
		a.facts = map[FactKey]*Triple{}
		var err error
		if out, err = a.analyzeRoot(); err != nil {
			return nil, nil, err
		}
		if !a.changed {
			break
		}
	}
	if err := a.deriveMetrics(); err != nil {
		return nil, nil, err
	}
	a.metrics.NumContexts = len(a.ctxList)
	a.metrics.CallMemoHits = a.memoHits
	a.metrics.CallMemoMisses = a.memoMisses
	a.metrics.SolverSteps = a.totalSteps.Load()
	a.metrics.DegradedContexts = len(a.degraded)
	if testHookAnalysis != nil {
		testHookAnalysis(a)
	}

	res = &Result{
		Prog:          prog,
		Table:         a.tab,
		Opts:          opts,
		Metrics:       a.metrics,
		Warnings:      a.warnings,
		Rounds:        rounds,
		MainOut:       out,
		ProcAnalyses:  a.procAnalyses,
		Degraded:      a.degraded,
		FastPath:      a.seqFast,
		contextsTotal: len(a.ctxList),
		contextsByFn:  map[*ir.Func]int{},
		seedStats:     SeedStats{Hits: a.seedHits, Misses: a.seedMisses, HitsByFunc: a.seedHitsByFn},
	}
	for _, e := range a.ctxList {
		res.contextsByFn[e.fn]++
	}
	if seeder != nil && len(a.degraded) == 0 && !opts.DisableContextCache {
		sums = a.exportSummaries()
	}
	// Ghost expansion interns location sets, so it runs here, before the
	// result can be published and read concurrently.
	a.expandGhosts()
	return res, sums, nil
}

// testHookAnalysis, when set by a test, receives every run's engine state
// just before analyze returns (the retention test attaches a finalizer).
var testHookAnalysis func(*Analysis)

// ---------------------------------------------------------------------------
// Cancellation polling and budget degradation

// poll is the dataflow.Solver poll hook, installed only when a context or
// budget is attached (a.polling). It runs before every chain transfer —
// also inside par-region solves, which bill the enclosing procedure's
// step counter.
func (x *exec) poll() error {
	a := x.a
	if err := a.ctx.Err(); err != nil {
		return err
	}
	a.totalSteps.Add(1)
	b := &a.opts.Budget
	if b.MaxSolverSteps > 0 && x.steps != nil && x.steps.Add(1) > int64(b.MaxSolverSteps) {
		return &budgetError{reason: fmt.Sprintf("solver steps > %d", b.MaxSolverSteps)}
	}
	if b.MaxGraphNodes > 0 && a.tab.NumLocSets() > b.MaxGraphNodes {
		return &budgetError{reason: fmt.Sprintf("location sets > %d", b.MaxGraphNodes)}
	}
	if !a.deadline.IsZero() && time.Now().After(a.deadline) {
		return &budgetError{reason: fmt.Sprintf("wall time > %v", b.MaxWallTime)}
	}
	return nil
}

// degrade falls one procedure context back to the flow-insensitive result
// after a budget excess: the Andersen-style graph of internal/flowinsens
// is a tested over-approximation of every flow-sensitive points-to graph
// the full analysis can compute (flowinsens is the soundness oracle of the
// differential tests), so unioning it into the context's result keeps the
// whole run sound while ending the runaway solve — the degraded result can
// no longer grow, so the enclosing fixed points still terminate.
func (a *Analysis) degrade(e *ctxEntry, be *budgetError) {
	fi := a.flowinsensGraph()
	grew := e.result.C.Union(fi)
	if e.result.E.Union(fi) {
		grew = true
	}
	if grew {
		e.result.version++
		a.changed = true
	}
	if !e.degraded {
		e.degraded = true
		a.degraded = append(a.degraded, Degradation{Proc: e.fn.Name, Ctx: e.id, Reason: be.reason})
	}
}

// flowinsensGraph lazily computes the flow-insensitive fallback graph,
// once per run — or adopts the caller-precomputed graph of
// AnalyzeContextFI, so a tiered query's tier-0 answer and its
// refinement's Budget degradations share one flowinsens computation.
func (a *Analysis) flowinsensGraph() *ptgraph.Graph {
	a.fiOnce.Do(func() {
		if a.fiPre != nil {
			a.fiGraph = a.fiPre
			return
		}
		a.fiGraph = flowinsens.Analyze(a.prog).Graph
	})
	return a.fiGraph
}

// InstrEvaluator applies single basic-statement transfer functions outside
// a full analysis run (used by the Interleaved reference algorithm and by
// differential tests). Calls and parallel constructs are not supported.
type InstrEvaluator struct {
	x *exec
}

// NewInstrEvaluator returns an evaluator over the program's location sets.
func NewInstrEvaluator(prog *ir.Program) *InstrEvaluator {
	return &InstrEvaluator{x: &exec{a: &Analysis{
		prog:       prog,
		tab:        prog.Table,
		entries:    map[*ir.Func]map[uint64][]*ctxEntry{},
		warnedUnk:  map[*ir.Instr]bool{},
		metrics:    newMetrics(),
		privBlocks: map[*locset.Block]bool{},
	}}}
}

// Apply applies one basic statement's transfer function to the triple.
func (ev *InstrEvaluator) Apply(in *ir.Instr, t *Triple) error {
	if in.Op == ir.OpCall {
		return fmt.Errorf("core: InstrEvaluator cannot apply calls")
	}
	return ev.x.transferInstr(in, t, nil)
}

// ApplySequentialInstr is a convenience wrapper around InstrEvaluator for
// one-off applications.
func ApplySequentialInstr(prog *ir.Program, in *ir.Instr, t *Triple) error {
	return NewInstrEvaluator(prog).Apply(in, t)
}

// analyzeRoot analyses main in the empty root context and returns the
// triple at main's exit.
func (a *Analysis) analyzeRoot() (*Triple, error) {
	x := &exec{a: a}
	e, err := x.getContext(a.prog.Main, ptgraph.New(), ptgraph.New(), nil)
	if err != nil {
		return nil, err
	}
	if err := x.analyzeContext(e); err != nil {
		return nil, err
	}
	return &Triple{C: e.result.C.Clone(), I: ptgraph.New(), E: e.result.E.Clone()}, nil
}

// mixU64 is the splitmix64 finalizer, used to combine context hash keys.
func mixU64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ctxHash combines the precomputed graph hashes and the ghost signature
// into the context bucket key.
func ctxHash(Cp, Ip *ptgraph.Graph, sig []uint64) uint64 {
	h := mixU64(Cp.Hash() ^ mixU64(Ip.Hash()^0x9e3779b97f4a7c15))
	for _, s := range sig {
		h = mixU64(h ^ s)
	}
	return h
}

func equalSig(a, b []uint64) bool {
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

// getContext interns an analysis context. Contexts are bucketed by a hash
// of the input graphs' incremental hashes; exact equality inside a bucket
// is verified with per-source interned-set pointer comparisons, so no
// serialised string keys are ever built.
func (x *exec) getContext(fn *ir.Func, Cp, Ip *ptgraph.Graph, ghostSrc map[*locset.Block][]*locset.Block) (*ctxEntry, error) {
	a := x.a
	sig := ghostSig(ghostSrc)
	h := ctxHash(Cp, Ip, sig)
	for _, e := range a.entries[fn][h] {
		if e.Cp.Equal(Cp) && e.Ip.Equal(Ip) && equalSig(e.sig, sig) {
			return e, nil
		}
	}
	m, ok := a.entries[fn]
	if !ok {
		m = map[uint64][]*ctxEntry{}
		a.entries[fn] = m
	}
	if len(a.ctxList) >= a.opts.maxContexts() {
		return nil, fmt.Errorf("core: context limit of %d exceeded (recursion through the context cache?)", a.opts.maxContexts())
	}
	e := &ctxEntry{
		id: len(a.ctxList), fn: fn, hash: h, sig: sig,
		Cp: Cp, Ip: Ip, ghostSrc: ghostSrc,
		result: newCallResult(),
	}
	m[h] = append(m[h], e)
	a.ctxList = append(a.ctxList, e)
	a.trySeed(e)
	return e, nil
}

// analyzeContext analyses a procedure in a context, updating its current
// best result. Recursive re-entry is handled by the outer rounds: callers
// hitting an in-progress context consume its current best result.
func (x *exec) analyzeContext(e *ctxEntry) error {
	a := x.a
	if e.inProgress {
		return nil
	}
	if e.doneRound == a.round && !a.opts.DisableContextCache {
		// Context cache hit: reuse the multithreaded partial transfer
		// function computed earlier this round. With the cache disabled
		// (ablation), the procedure is re-analysed at every call site.
		return nil
	}
	if e.seeded != nil {
		// The retained fixed-point result stands in for the solve, unless
		// a stored callee key no longer resolves (applySeed, seed.go).
		if done, err := x.applySeed(e); done {
			return err
		}
	}
	e.inProgress = true
	defer func() { e.inProgress = false }()
	e.doneRound = a.round
	e.callees = nil // a summary exports the edges of the final round's solve
	a.procAnalyses++

	if a.opts.Budget.MaxSolverSteps > 0 {
		// Each procedure-context analysis gets a fresh step budget; the
		// caller's counter resumes when this analysis (and everything it
		// solves, including par regions) finishes.
		saved := x.steps
		x.steps = new(atomic.Int64)
		defer func() { x.steps = saved }()
	}

	in := &Triple{C: e.Cp.Clone(), I: e.Ip.Clone(), E: ptgraph.New()}
	if a.seqFast {
		// Fast path: every context input I is empty; share the canonical
		// empty graph so facts never clone or union an I. The fresh E
		// graph becomes this solve's shared accumulator (solve.go).
		in.I = a.emptyI
	}
	out, err := x.solveBody(a.flow.FuncGraph(e.fn), in, e)
	if err != nil {
		var be *budgetError
		if errors.As(err, &be) {
			// Budget excess: degrade this procedure context to the sound
			// flow-insensitive result and let the run continue.
			a.degrade(e, be)
			return nil
		}
		return err
	}
	grew := e.result.C.Union(out.C)
	if e.result.E.Union(out.E) {
		grew = true
	}
	if grew {
		e.result.version++
		a.changed = true
	}
	return nil
}
