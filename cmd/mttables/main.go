// Command mttables regenerates the tables and figures of the paper's
// evaluation (§4) over the embedded benchmark corpus:
//
//	mttables -table 1      program characteristics        (Table 1)
//	mttables -table 2      per-context counts             (Table 2)
//	mttables -table 3      convergence measurements       (Table 3)
//	mttables -table 4      merged-context counts, MT+Seq  (Table 4)
//	mttables -table fig8   load histogram                 (Figure 8)
//	mttables -table fig9   store histogram                (Figure 9)
//	mttables -table fig10  analysis times                 (Figure 10)
//	mttables -table cache  context-cache and call-memo statistics
//	mttables -table budget solver-step and degradation counters
//	mttables -table tier   fast-path eligibility and tiered-precision data
//	mttables -table threads  create/join/lock sites per procedure (unstructured partition)
//	mttables -table all    everything
//
// -table tier covers both corpus partitions: the 18 paper programs
// (all of which reach a spawn, so the engine's sequential fast path
// never fires) and the sequential partition, where the fast path must
// fire and the tier-0/refined edge counts bound the precision gap.
//
// A per-program analysis failure does not abort the run: the failing
// program is reported on stderr, the tables render the remaining
// programs, and the exit code is nonzero. -timeout bounds the whole
// corpus analysis (exit code 3 on expiry); -max-steps sets the
// per-procedure solver budget, degrading offenders to the
// flow-insensitive result (see -table budget).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mtpa"
	"mtpa/internal/bench"
	"mtpa/internal/metrics"
)

// validTables is the closed set of -table arguments; anything else is a
// usage error (an unknown name used to silently render nothing).
var validTables = map[string]bool{
	"1": true, "2": true, "3": true, "4": true,
	"fig8": true, "fig9": true, "fig10": true,
	"cache": true, "budget": true, "tier": true, "threads": true, "all": true,
}

func main() {
	table := flag.String("table", "all", "which table/figure to produce: 1, 2, 3, 4, fig8, fig9, fig10, cache, budget, tier, threads, all")
	timingRuns := flag.Int("timing-runs", 3, "analysis runs per timing measurement (fig10); the minimum is reported")
	timeout := flag.Duration("timeout", 0, "cancel the corpus analysis after this duration (0 = no limit)")
	maxSteps := flag.Int("max-steps", 0, "per-procedure solver step budget, degrading to flow-insensitive on excess (0 = no limit)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the table generation to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after table generation to this file")
	flag.Parse()

	if !validTables[*table] {
		fmt.Fprintln(os.Stderr, "mttables:", unknownTableDiag(*table))
		os.Exit(1)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mttables:", err)
		os.Exit(1)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	runErr := run(ctx, os.Stdout, os.Stderr, *table, *timingRuns, *maxSteps)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "mttables:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "mttables:", runErr)
		os.Exit(exitCode(runErr))
	}
}

// unknownTableDiag is the one-line diagnostic for a -table name outside
// validTables (golden-pinned: an unknown name used to silently render
// nothing and exit 0).
func unknownTableDiag(table string) string {
	return fmt.Sprintf("unknown table %q (valid: 1, 2, 3, 4, fig8, fig9, fig10, cache, budget, tier, threads, all)", table)
}

// exitCode mirrors the mtpa CLI's classification: 3 for timeouts and
// cancellation, 1 for everything else.
func exitCode(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return 3
	}
	return 1
}

// startProfiles starts the requested pprof profiles and returns a function
// that finalises them (stopping the CPU profile and snapshotting the heap).
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // a settled heap makes the profile reproducible
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

type analysed struct {
	bench.Program
	Compiled    *mtpa.Program
	SeqCompiled *mtpa.Program
	MT          *mtpa.Result
	Seq         *mtpa.Result
}

// analyseCorpus runs both analysis modes over the whole corpus through the
// parallel driver, fanning the 18 programs across GOMAXPROCS workers. A
// program that fails in either mode is reported to errOut and dropped; the
// survivors come back with a summary error describing the failures, so the
// caller can still render tables before exiting nonzero.
func analyseCorpus(ctx context.Context, errOut io.Writer, opts mtpa.Options) ([]analysed, error) {
	progs, err := bench.Programs()
	if err != nil {
		return nil, err
	}
	mtOpts, seqOpts := opts, opts
	mtOpts.Mode, seqOpts.Mode = mtpa.Multithreaded, mtpa.Sequential
	mt, err := bench.AnalyzeAllContext(ctx, mtOpts, 0)
	if err != nil {
		return nil, err
	}
	seq, err := bench.AnalyzeAllContext(ctx, seqOpts, 0)
	if err != nil {
		return nil, err
	}
	var out []analysed
	var failed int
	var firstErr error
	for i, p := range progs {
		perr := mt[i].Err
		if perr == nil {
			perr = seq[i].Err
		}
		if perr != nil {
			failed++
			fmt.Fprintln(errOut, "mttables:", perr)
			if firstErr == nil {
				firstErr = perr
			}
			continue
		}
		out = append(out, analysed{
			Program:  p,
			Compiled: mt[i].Prog, SeqCompiled: seq[i].Prog,
			MT: mt[i].Res, Seq: seq[i].Res,
		})
	}
	if failed > 0 {
		return out, fmt.Errorf("%d of %d corpus programs failed to analyse: %w", failed, len(progs), firstErr)
	}
	return out, nil
}

func run(ctx context.Context, out, errOut io.Writer, table string, timingRuns, maxSteps int) error {
	var opts mtpa.Options
	opts.Budget.MaxSolverSteps = maxSteps
	all, corpusErr := analyseCorpus(ctx, errOut, opts)
	if len(all) == 0 {
		return corpusErr
	}

	want := func(t string) bool { return table == "all" || table == t }

	if want("1") {
		var rows []metrics.ProgramStats
		for _, a := range all {
			rows = append(rows, metrics.Characteristics(a.Name, a.Description, a.Source, a.Compiled.IR))
		}
		fmt.Fprintln(out, metrics.RenderTable1(rows))
	}

	if want("2") || want("fig8") || want("fig9") {
		names := make([]string, 0, len(all))
		dists := map[string]*metrics.Dist{}
		agg := metrics.NewDist()
		for _, a := range all {
			d := metrics.SeparateContexts(a.Compiled.IR, a.MT)
			names = append(names, a.Name)
			dists[a.Name] = d
			agg.Merge(d)
		}
		if want("fig8") {
			fmt.Fprintln(out, metrics.RenderHistogram(
				"Figure 8: Location Set Histogram for Load Instructions (all contexts)", agg.Loads))
		}
		if want("fig9") {
			fmt.Fprintln(out, metrics.RenderHistogram(
				"Figure 9: Location Set Histogram for Store Instructions (all contexts)", agg.Stores))
		}
		if want("2") {
			fmt.Fprintln(out, metrics.RenderPerProgramCounts(
				"Table 2: Location Sets per Access — Separate Contexts, Ghost Location Sets",
				names, dists))
		}
	}

	if want("3") {
		var rows []metrics.Convergence
		for _, a := range all {
			rows = append(rows, metrics.ConvergenceOf(a.Name, a.MT))
		}
		fmt.Fprintln(out, metrics.RenderTable3(rows))
	}

	if want("4") {
		names := make([]string, 0, len(all))
		mtDists := map[string]*metrics.Dist{}
		seqDists := map[string]*metrics.Dist{}
		for _, a := range all {
			names = append(names, a.Name)
			mtDists[a.Name] = metrics.MergedContexts(a.Compiled.IR, a.MT)
			seqDists[a.Name] = metrics.MergedContexts(a.SeqCompiled.IR, a.Seq)
		}
		fmt.Fprintln(out, metrics.RenderPerProgramCounts(
			"Table 4: Location Sets per Access — Merged Contexts, Ghosts Replaced by Actuals (Multithreaded)",
			names, mtDists))
		fmt.Fprintln(out, metrics.RenderPerProgramCounts(
			"Table 4 (comparison): Same Metric for the Sequential Baseline",
			names, seqDists))
	}

	if want("cache") {
		var rows []metrics.CacheStats
		for _, a := range all {
			rows = append(rows, metrics.CacheStatsOf(a.Name, a.MT))
		}
		fmt.Fprintln(out, metrics.RenderCacheStats(rows))
	}

	if want("budget") {
		var rows []metrics.BudgetStats
		for _, a := range all {
			rows = append(rows, metrics.BudgetStatsOf(a.Name, a.MT))
		}
		fmt.Fprintln(out, metrics.RenderBudgetStats(rows))
	}

	if want("tier") {
		rows := make([]metrics.TierRow, 0, len(all))
		for _, a := range all {
			rows = append(rows, tierRowOf(a.Name, "parallel", a.Compiled, a.MT))
		}
		seqAll, err := bench.AnalyzeSeqAll(mtpa.Options{Mode: mtpa.Multithreaded}, 0)
		if err != nil {
			return err
		}
		for _, r := range seqAll {
			if r.Err != nil {
				fmt.Fprintln(errOut, "mttables:", r.Err)
				if corpusErr == nil {
					corpusErr = r.Err
				}
				continue
			}
			rows = append(rows, tierRowOf(r.Name, "sequential", r.Prog, r.Res))
		}
		fmt.Fprintln(out, metrics.RenderTierTable(rows))
	}

	if want("threads") {
		// The unstructured partition: create/join/lock sites per procedure.
		// The analysis runs first so a program the engine cannot handle is reported like any other
		// corpus failure; the site counts themselves come from lowering.
		unstr, err := bench.AnalyzeUnstrAll(mtpa.Options{Mode: mtpa.Multithreaded}, 0)
		if err != nil {
			return err
		}
		var rows []metrics.ThreadSiteRow
		for _, r := range unstr {
			if r.Err != nil {
				fmt.Fprintln(errOut, "mttables:", r.Err)
				if corpusErr == nil {
					corpusErr = r.Err
				}
				continue
			}
			rows = append(rows, metrics.ThreadSites(r.Name, r.Prog.IR)...)
		}
		fmt.Fprintln(out, metrics.RenderThreadSites(rows))
	}

	if want("fig10") {
		var rows []metrics.TimeRow
		for _, a := range all {
			rows = append(rows, metrics.TimeRow{
				Name:         a.Name,
				SeqSeconds:   timeAnalysis(a.Compiled, mtpa.Sequential, timingRuns),
				MultiSeconds: timeAnalysis(a.Compiled, mtpa.Multithreaded, timingRuns),
			})
		}
		fmt.Fprintln(out, metrics.RenderTimes(rows))
	}
	return corpusErr
}

// tierRowOf assembles one tiered-precision row: eligibility from the
// par-reachability pass, the engine the refinement actually ran on, and
// the tier-0 (flow-insensitive) versus refined edge counts.
func tierRowOf(name, partition string, prog *mtpa.Program, res *mtpa.Result) metrics.TierRow {
	return metrics.TierRow{
		Name:         name,
		Partition:    partition,
		Eligible:     prog.FastPathEligible(),
		FastPath:     res.FastPath,
		Tier0Edges:   prog.FlowInsensitive().Graph.Len(),
		RefinedEdges: res.MainOut.C.Len(),
	}
}

func timeAnalysis(p *mtpa.Program, mode mtpa.Mode, runs int) float64 {
	best := 0.0
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := p.Analyze(mtpa.Options{Mode: mode}); err != nil {
			return 0
		}
		d := time.Since(start).Seconds()
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}
