// Command mtpa analyses a MiniCilk program with the multithreaded pointer
// analysis of Rugina and Rinard (PLDI 1999).
//
//	mtpa [flags] file.clk [file2.clk ...]
//
//	-mode mt|seq       analysis algorithm (multithreaded or the unsound
//	                   sequential baseline)
//	-summary           print the points-to graph at main's exit (default)
//	-accesses          print the location sets of every pointer access
//	-stats             print program characteristics and convergence data
//	-race              run the static race detector
//	-dump-ir           print the lowered parallel flow graph
//	-dump-pfg          print the vertex-level flow graphs the solver runs on
//	-run               execute the program under the interpreter
//	-seed n            scheduler seed for -run
//	-corpus name       analyse an embedded benchmark instead of a file
//	-tiered            answer in two tiers: print the flow-insensitive
//	                   tier-0 answer as soon as it is available, then the
//	                   flow-sensitive refinement when the fixpoint lands
//	                   (both timings are reported)
//	-timeout d         cancel the analysis after duration d (exit code 3)
//	-max-steps n       per-procedure solver step budget; exceeding it
//	                   degrades that procedure to the flow-insensitive
//	                   result instead of failing the run
//	-repeat n          analyse each input n times through one incremental
//	                   session and report cache hit rates
//
// Multiple files (or -repeat above 1) run through one analysis session:
// artifacts — parsed declarations, naming environments, per-context
// summaries and whole-file results — are reused across updates, and a
// reuse report is printed after the batch.
//
// Exit codes: 0 success, 1 malformed input or usage error, 2 analysis
// failure or internal error, 3 timeout/cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mtpa"
	"mtpa/internal/ast"
	"mtpa/internal/bench"
	"mtpa/internal/interp"
	"mtpa/internal/metrics"
	"mtpa/internal/pfg"
	"mtpa/internal/race"
)

// config carries the parsed command line into run.
type config struct {
	mode     string
	summary  bool
	accesses bool
	stats    bool
	race     bool
	indep    bool
	dumpIR   bool
	dumpPFG  bool
	format   bool
	runProg  bool
	seed     int64
	corpus   string
	tiered   bool
	timeout  time.Duration
	maxSteps int
	repeat   int
	args     []string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.mode, "mode", "mt", "analysis mode: mt (multithreaded) or seq (sequential baseline)")
	flag.BoolVar(&cfg.summary, "summary", true, "print the points-to graph at main's exit")
	flag.BoolVar(&cfg.accesses, "accesses", false, "print location sets per pointer access")
	flag.BoolVar(&cfg.stats, "stats", false, "print program characteristics and convergence")
	flag.BoolVar(&cfg.race, "race", false, "run the static race detector")
	flag.BoolVar(&cfg.indep, "independence", false, "classify each parallel construct as independent or conflicting (§4.4)")
	flag.BoolVar(&cfg.dumpIR, "dump-ir", false, "print the lowered parallel flow graph")
	flag.BoolVar(&cfg.dumpPFG, "dump-pfg", false, "print the vertex-level flow graphs the solver runs on")
	flag.BoolVar(&cfg.format, "format", false, "pretty-print the parsed program and exit")
	flag.BoolVar(&cfg.runProg, "run", false, "execute the program under the interpreter")
	flag.Int64Var(&cfg.seed, "seed", 1, "scheduler seed for -run")
	flag.StringVar(&cfg.corpus, "corpus", "", "analyse an embedded benchmark program by name")
	flag.BoolVar(&cfg.tiered, "tiered", false, "answer in two tiers: flow-insensitive immediately, flow-sensitive when the fixpoint lands")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "cancel the analysis after this duration (0 = no limit)")
	flag.IntVar(&cfg.maxSteps, "max-steps", 0, "per-procedure solver step budget, degrading to flow-insensitive on excess (0 = no limit)")
	flag.IntVar(&cfg.repeat, "repeat", 1, "analyse each input this many times through one incremental session")
	flag.Parse()
	cfg.args = flag.Args()

	if err := run(os.Stdout, os.Stderr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mtpa:", diagnostic(err))
		os.Exit(exitCode(err))
	}
}

// diagnostic renders the one-line form of an error for stderr: for
// malformed input that is the first "file:line:col: message" diagnostic,
// for everything else the error text.
func diagnostic(err error) string {
	var pe *mtpa.ParseError
	if errors.As(err, &pe) {
		return pe.Diagnostic()
	}
	return err.Error()
}

// exitCode classifies an error from run into the documented exit codes:
// 3 for timeouts and cancellation, 2 for analysis failures and internal
// errors, 1 for malformed input and usage errors.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return 3
	}
	var ae *mtpa.AnalysisError
	var ice *mtpa.ICEError
	if errors.As(err, &ae) || errors.As(err, &ice) {
		return 2
	}
	return 1
}

// input is one program to analyse.
type input struct {
	name, src string
}

func run(out, errOut io.Writer, cfg config) error {
	var inputs []input
	switch {
	case cfg.corpus != "":
		// Paper corpus first, then the sequential partition (seqfib,
		// deadpar, ...), so every embedded benchmark is reachable by name.
		p, err := bench.Load(cfg.corpus)
		if err != nil {
			if p, err = bench.SeqLoad(cfg.corpus); err != nil {
				return fmt.Errorf("bench: unknown program %q", cfg.corpus)
			}
		}
		inputs = append(inputs, input{cfg.corpus + ".clk", p.Source})
	case len(cfg.args) >= 1:
		for _, arg := range cfg.args {
			data, err := os.ReadFile(arg)
			if err != nil {
				return err
			}
			inputs = append(inputs, input{arg, string(data)})
		}
	default:
		return fmt.Errorf("usage: mtpa [flags] file.clk [file2.clk ...] (or -corpus name)")
	}
	if cfg.repeat < 1 {
		cfg.repeat = 1
	}

	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	if cfg.mode == "seq" {
		opts.Mode = mtpa.Sequential
	}
	opts.Budget.MaxSolverSteps = cfg.maxSteps
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	// The classic one-shot path: a single input analysed once.
	if cfg.repeat == 1 && len(inputs) == 1 {
		in := inputs[0]
		prog, err := mtpa.Compile(in.name, in.src)
		if err != nil {
			return err
		}
		if done, err := renderPre(out, errOut, cfg, prog); done || err != nil {
			return err
		}
		var res *mtpa.Result
		if cfg.tiered {
			res, err = runTiered(ctx, out, opts, prog)
		} else {
			res, err = prog.AnalyzeContext(ctx, opts)
		}
		if err != nil {
			return err
		}
		return renderPost(out, errOut, cfg, opts, in.name, in.src, prog, res)
	}

	// Batch mode: every input and every repeat flows through one session.
	sess := mtpa.NewSession(opts)
	for pass := 0; pass < cfg.repeat; pass++ {
		for _, in := range inputs {
			var up *mtpa.UpdateResult
			if cfg.tiered {
				u, uerr := sess.UpdateTiered(ctx, in.name, in.src)
				if uerr != nil {
					return uerr
				}
				res, rerr := u.Refined()
				if rerr != nil {
					return rerr
				}
				stats, _ := u.Stats()
				up = &mtpa.UpdateResult{Program: u.Program, Result: res, Stats: stats}
			} else {
				u, uerr := sess.UpdateContext(ctx, in.name, in.src)
				if uerr != nil {
					return uerr
				}
				up = u
			}
			if pass == 0 {
				if done, err := renderPre(out, errOut, cfg, up.Program); done || err != nil {
					if err != nil {
						return err
					}
					continue
				}
				if err := renderPost(out, errOut, cfg, opts, in.name, in.src, up.Program, up.Result); err != nil {
					return err
				}
			}
		}
	}

	st := sess.Stats()
	sums := st.Store["sum"]
	fmt.Fprintf(out, "== session: %d update(s) over %d input(s), %d pass(es) ==\n",
		st.Updates, len(inputs), cfg.repeat)
	fmt.Fprintf(out, "whole-file result cache: %d hit(s)\n", st.Store["res"].Hits)
	fmt.Fprintf(out, "procedure AST cache:     %d hit(s), %d miss(es)\n",
		st.Store["ast"].Hits, st.Store["ast"].Misses)
	total := st.SeedHits + st.SeedMisses
	rate := 0.0
	if total > 0 {
		rate = 100 * float64(st.SeedHits) / float64(total)
	}
	fmt.Fprintf(out, "context summary cache:   %d hit(s), %d miss(es) (%.1f%% warm), %d probe(s)\n",
		st.SeedHits, st.SeedMisses, rate, sums.Hits+sums.Misses)
	return nil
}

// runTiered answers through the tiered query API, reporting the tier-0
// (flow-insensitive) answer and its latency the moment it is available
// and the refinement latency once the fixpoint lands. The returned
// refinement feeds the ordinary reports.
func runTiered(ctx context.Context, out io.Writer, opts mtpa.Options, prog *mtpa.Program) (*mtpa.Result, error) {
	start := time.Now()
	tr := prog.AnalyzeTiered(ctx, opts)
	fmt.Fprintf(out, "== tier 0: flow-insensitive answer in %v (%d edges, %d iterations) ==\n",
		time.Since(start).Round(time.Microsecond), tr.Fast.Graph.Len(), tr.Fast.Iterations)
	res, err := tr.Refined()
	if err != nil {
		return nil, err
	}
	engine := "full engine"
	if res.FastPath {
		engine = "sequential fast path"
	}
	fmt.Fprintf(out, "== tier 1: flow-sensitive refinement in %v (%s) ==\n",
		time.Since(start).Round(time.Microsecond), engine)
	return res, nil
}

// renderPre prints compile-stage output (warnings, -format, the IR and
// flow-graph dumps). done reports that -format consumed the run.
func renderPre(out, errOut io.Writer, cfg config, prog *mtpa.Program) (done bool, err error) {
	for _, w := range prog.Warnings {
		fmt.Fprintln(errOut, "warning:", w)
	}
	if cfg.format {
		fmt.Fprint(out, ast.Print(prog.AST))
		return true, nil
	}
	if cfg.dumpIR {
		fmt.Fprint(out, prog.IR.Format())
	}
	if cfg.dumpPFG {
		flow := pfg.BuildProgram(prog.IR)
		for _, fn := range prog.IR.Funcs {
			fmt.Fprintf(out, "func %s:\n%s", fn.Name, pfg.Format(flow.FuncGraph(fn)))
		}
	}
	return false, nil
}

// renderPost prints the analysis-stage reports selected by the flags.
func renderPost(out, errOut io.Writer, cfg config, opts mtpa.Options, name, src string, prog *mtpa.Program, res *mtpa.Result) error {
	for _, w := range res.Warnings {
		fmt.Fprintln(errOut, "analysis warning:", w)
	}
	for _, d := range res.Degraded {
		fmt.Fprintf(errOut, "budget: %s ctx%d degraded to flow-insensitive (%s)\n", d.Proc, d.Ctx, d.Reason)
	}

	tab := prog.Table()
	if cfg.summary {
		fmt.Fprintf(out, "== %s analysis: points-to graph at main's exit ==\n", opts.Mode)
		fmt.Fprintln(out, res.MainOut.C.FormatFiltered(tab, tab.IsTemp))
		fmt.Fprintf(out, "(%d contexts, %d fixed-point rounds)\n", res.ContextsTotal(), res.Rounds)
	}

	if cfg.accesses {
		fmt.Fprintln(out, "== pointer accesses (per analysis context) ==")
		for _, s := range res.Metrics.AccessSamples() {
			acc := prog.IR.Accesses[s.AccID]
			kind := "load"
			if acc.Instr.IsStoreInstr() {
				kind = "store"
			}
			n, uninit := s.Count()
			mark := ""
			if uninit {
				mark = " (potentially uninitialised)"
			}
			var names []string
			for _, l := range s.Locs {
				names = append(names, tab.String(l))
			}
			fmt.Fprintf(out, "%s %s ctx%d: %d location set(s)%s %v\n",
				acc.Instr.Pos, kind, s.CtxID, n, mark, names)
		}
	}

	if cfg.stats {
		st := metrics.Characteristics(name, "", src, prog.IR)
		fmt.Fprintln(out, metrics.RenderTable1([]metrics.ProgramStats{st}))
		fmt.Fprintln(out, metrics.RenderTable3([]metrics.Convergence{metrics.ConvergenceOf(name, res)}))
		eligible, engine := "no", "full engine"
		if prog.FastPathEligible() {
			eligible = "yes"
		}
		if res.FastPath {
			engine = "sequential fast path"
		}
		fmt.Fprintf(out, "fast path: eligible=%s, refined on the %s\n", eligible, engine)
	}

	if cfg.race {
		races := race.New(prog.IR, res).Detect()
		fmt.Fprintf(out, "== race detector: %d potential race(s) ==\n", len(races))
		for _, r := range races {
			fmt.Fprintln(out, " ", r)
			var names []string
			for _, l := range r.Shared {
				names = append(names, tab.String(l))
			}
			fmt.Fprintf(out, "    shared locations: %v\n", names)
		}
	}

	if cfg.indep {
		cs := race.New(prog.IR, res).CheckIndependence()
		fmt.Fprintf(out, "== independence: %d parallel construct(s) ==\n", len(cs))
		for _, c := range cs {
			fmt.Fprintln(out, " ", c)
		}
	}

	if cfg.runProg {
		m := interp.New(prog.IR, out, cfg.seed)
		code, err := m.Run()
		if err != nil {
			return fmt.Errorf("interpreter: %w", err)
		}
		fmt.Fprintf(out, "== program exited with %d (seed %d) ==\n", code, cfg.seed)
	}
	return nil
}
