// Package metrics computes and renders the measurements of the paper's
// evaluation (§4): program characteristics (Table 1), per-context and
// merged-context location-set counts for pointer-dereferencing accesses
// (Tables 2 and 4, Figures 8 and 9), parallel-construct convergence
// (Table 3), and analysis-time comparisons (Figure 10).
//
// The per-access and per-construct samples this package aggregates come
// from core.Metrics, which derives them from the dataflow facts the
// worklist solver records at each flow-graph vertex during the metrics
// pass (see internal/core/metrics.go).
package metrics

import (
	"sort"
	"strings"

	"mtpa/internal/core"
	"mtpa/internal/ir"
	"mtpa/internal/locset"
)

// ProgramStats is one row of Table 1.
type ProgramStats struct {
	Name        string
	Description string
	LoC         int
	ThreadSites int
	Loads       int
	PtrLoads    int
	Stores      int
	PtrStores   int
	LocSets     int
	PtrLocSets  int
}

// Characteristics computes the Table 1 row for a compiled program.
func Characteristics(name, description, source string, prog *ir.Program) ProgramStats {
	st := ProgramStats{
		Name:        name,
		Description: description,
		LoC:         countLoC(source),
		ThreadSites: prog.ThreadCreationSites,
		Loads:       prog.NumLoads,
		PtrLoads:    prog.NumPtrLoads,
		Stores:      prog.NumStores,
		PtrStores:   prog.NumPtrStores,
	}
	tab := prog.Table
	for _, b := range tab.Blocks() {
		if b.Kind == locset.KindGhost || b.Kind == locset.KindUnk {
			continue // ghost location sets are excluded, as in the paper
		}
		for _, id := range tab.LocSetsInBlock(b) {
			if tab.Get(id).Derived {
				continue // named only by Table 4's ghost expansion
			}
			st.LocSets++
			if tab.Get(id).Pointer {
				st.PtrLocSets++
			}
		}
	}
	return st
}

// ThreadSiteRow is one row of the threads table: the
// unstructured-concurrency sites lowered in one procedure.
type ThreadSiteRow struct {
	Program string
	Proc    string
	Creates int // thread_create statements
	Joins   int // joins matched to a create in their statement list
	Locks   int // lock(m) statements
	Unlocks int // unlock(m) statements
}

// ThreadSites collects one threads-table row per procedure of prog, in
// declaration order. Creates that exceed Joins are detached threads: no
// join in their statement list ever closes them.
func ThreadSites(name string, prog *ir.Program) []ThreadSiteRow {
	rows := make([]ThreadSiteRow, 0, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		rows = append(rows, ThreadSiteRow{
			Program: name, Proc: fn.Name,
			Creates: fn.CreateSites, Joins: fn.JoinSites,
			Locks: fn.LockSites, Unlocks: fn.UnlockSites,
		})
	}
	return rows
}

func countLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			continue
		}
		n++
	}
	return n
}

// Cell is one histogram cell: the number of accesses requiring exactly n
// location sets, and how many of those dereference a potentially
// uninitialised pointer (the gray part of Figures 8 and 9, the
// parenthesised counts of Tables 2 and 4).
type Cell struct {
	Total  int
	Uninit int
}

// Dist is the distribution of location-set counts for one program: one
// histogram for loads and one for stores, keyed by the count n.
type Dist struct {
	Loads  map[int]*Cell
	Stores map[int]*Cell
}

// NewDist returns an empty distribution.
func NewDist() *Dist {
	return &Dist{Loads: map[int]*Cell{}, Stores: map[int]*Cell{}}
}

func (d *Dist) add(isLoad bool, n int, uninit bool) {
	m := d.Stores
	if isLoad {
		m = d.Loads
	}
	c, ok := m[n]
	if !ok {
		c = &Cell{}
		m[n] = c
	}
	c.Total++
	if uninit {
		c.Uninit++
	}
}

// Merge adds another distribution into d (used to aggregate the per-program
// rows into the Figure 8/9 histograms).
func (d *Dist) Merge(other *Dist) {
	for n, c := range other.Loads {
		dc, ok := d.Loads[n]
		if !ok {
			dc = &Cell{}
			d.Loads[n] = dc
		}
		dc.Total += c.Total
		dc.Uninit += c.Uninit
	}
	for n, c := range other.Stores {
		dc, ok := d.Stores[n]
		if !ok {
			dc = &Cell{}
			d.Stores[n] = dc
		}
		dc.Total += c.Total
		dc.Uninit += c.Uninit
	}
}

// MaxN returns the largest location-set count appearing in the
// distribution.
func (d *Dist) MaxN() int {
	max := 0
	for n := range d.Loads {
		if n > max {
			max = n
		}
	}
	for n := range d.Stores {
		if n > max {
			max = n
		}
	}
	return max
}

// SeparateContexts computes the Table 2 row: every (access, context) pair
// counts once, and ghost location sets count as themselves.
func SeparateContexts(prog *ir.Program, res *core.Result) *Dist {
	d := NewDist()
	for _, s := range res.Metrics.AccessSamples() {
		acc := prog.Accesses[s.AccID]
		n, uninit := s.Count()
		d.add(acc.Instr.IsLoadInstr(), n, uninit)
	}
	return d
}

// MergedContexts computes the Table 4 row: contexts are merged per access,
// and ghost location sets are replaced by the actual location sets that
// were mapped to them during the analysis.
func MergedContexts(prog *ir.Program, res *core.Result) *Dist {
	byAcc := map[int]map[locset.ID]bool{}
	for _, s := range res.Metrics.AccessSamples() {
		set, ok := byAcc[s.AccID]
		if !ok {
			set = map[locset.ID]bool{}
			byAcc[s.AccID] = set
		}
		for _, id := range res.ExpandGhosts(s) {
			set[id] = true
		}
	}
	d := NewDist()
	accIDs := make([]int, 0, len(byAcc))
	for id := range byAcc {
		accIDs = append(accIDs, id)
	}
	sort.Ints(accIDs)
	for _, accID := range accIDs {
		set := byAcc[accID]
		n := 0
		uninit := false
		for id := range set {
			if id == locset.UnkID {
				uninit = true
				continue
			}
			n++
		}
		if n < 1 {
			n = 1
		}
		acc := prog.Accesses[accID]
		d.add(acc.Instr.IsLoadInstr(), n, uninit)
	}
	return d
}

// Convergence is one row of Table 3.
type Convergence struct {
	Name        string
	Analyses    int
	MeanIters   float64
	MeanThreads float64
}

// ConvergenceOf computes the Table 3 row from the recorded
// parallel-construct analyses.
func ConvergenceOf(name string, res *core.Result) Convergence {
	samples := res.Metrics.ParSamples()
	c := Convergence{Name: name, Analyses: len(samples)}
	if len(samples) == 0 {
		return c
	}
	var iters, threads int
	for _, s := range samples {
		iters += s.Iterations
		threads += s.Threads
	}
	c.MeanIters = float64(iters) / float64(len(samples))
	c.MeanThreads = float64(threads) / float64(len(samples))
	return c
}

// TimeRow is one row of Figure 10: analysis wall-clock for the Sequential
// and Multithreaded algorithms.
type TimeRow struct {
	Name         string
	SeqSeconds   float64
	MultiSeconds float64
}

// CacheStats summarises the reuse machinery for one program: analysis
// contexts and procedure analyses (the context cache of Definition 2) and
// the call-site transfer memo's hit/miss counters. The engine is
// sequential, so every count is a deterministic function of the program
// (cmd/mttables pins them in cache.golden).
type CacheStats struct {
	Name         string
	Contexts     int
	ProcAnalyses int
	MemoHits     int
	MemoMisses   int
}

// CacheStatsOf extracts the cache measurements from an analysis result.
func CacheStatsOf(name string, res *core.Result) CacheStats {
	return CacheStats{
		Name:         name,
		Contexts:     res.ContextsTotal(),
		ProcAnalyses: res.ProcAnalyses,
		MemoHits:     res.Metrics.CallMemoHits,
		MemoMisses:   res.Metrics.CallMemoMisses,
	}
}

// HitRate returns the memo hit fraction in [0, 1], or 0 with no probes.
func (c CacheStats) HitRate() float64 {
	if c.MemoHits+c.MemoMisses == 0 {
		return 0
	}
	return float64(c.MemoHits) / float64(c.MemoHits+c.MemoMisses)
}

// BudgetStats summarises the robustness counters of one analysis run:
// total worklist chain transfers (tracked only when a context or budget is
// attached to the run) and the procedure contexts that exceeded a resource
// budget and degraded to the flow-insensitive result. The step count is
// deterministic for a given program and budget; a MaxWallTime budget
// makes the degradations depend on machine speed.
type BudgetStats struct {
	Name        string
	SolverSteps int64
	Degraded    int
	Reasons     []string // "proc: reason" per degraded context
}

// BudgetStatsOf extracts the budget/degradation counters from an analysis
// result.
func BudgetStatsOf(name string, res *core.Result) BudgetStats {
	b := BudgetStats{
		Name:        name,
		SolverSteps: res.Metrics.SolverSteps,
		Degraded:    res.Metrics.DegradedContexts,
	}
	for _, d := range res.Degraded {
		b.Reasons = append(b.Reasons, d.Proc+": "+d.Reason)
	}
	return b
}
