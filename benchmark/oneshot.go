// oneshot-par and oneshot-seq: the batch/CLI user. One op is one program
// through the one-shot pipeline — the front end as mtpa.Compile runs it,
// the default-options analysis, race detection — in a closed loop on one
// goroutine, whole passes over the partition in seeded order.

package main

import (
	"context"
	"fmt"
	"time"

	"mtpa/internal/core"
	"mtpa/internal/pfg"
	"mtpa/internal/race"
)

// runOneshotPar: the 26 programs whose parallelism is reachable (18 paper
// programs, 8 unstructured), so the par machinery does the work.
func runOneshotPar(cfg config) (*report, error) {
	return runOneshot(cfg, paperCorpus, unstrCorpus)
}

// runOneshotSeq: the 7 sequential-partition programs, on which the
// sequential fast path fires every time.
func runOneshotSeq(cfg config) (*report, error) {
	return runOneshot(cfg, seqCorpus)
}

type oneshotOp struct {
	prog   int
	first  time.Duration // compile + analyze: the points-to answer
	lat    time.Duration // first + race detection
	row    row
	races  int
	fast   bool
	procs  int
	memoH  int
	memoM  int
	pfg    time.Duration // traced: the separate flow-graph build
	failed error
}

type oneshot struct {
	progs []*program
	in    *inputs
	races []int // per program: the warm-up pass's race count
}

// op runs one program through the pipeline. A traced op also times a
// separate pfg.BuildProgram, outside the op's span: the analysis builds
// the flow graph inside core, where the benchmark cannot see it.
func (w *oneshot) op(pi int, tr *tracer, id int) oneshotOp {
	p := w.progs[pi]
	rec := oneshotOp{prog: pi}
	start := time.Now()
	root := tr.begin("op", -1, id)
	irProg, err := compile(p.file, p.src, tr, root, id)
	if err != nil {
		tr.end(root)
		rec.failed = err
		return rec
	}
	s := tr.begin("core", root, id)
	res, err := core.AnalyzeContext(context.Background(), irProg, analysisOpts)
	tr.end(s)
	if err != nil {
		tr.end(root)
		rec.failed = fmt.Errorf("analyze %s: %w", p.file, err)
		return rec
	}
	rec.first = time.Since(start)
	s = tr.begin("race", root, id)
	races := race.New(irProg, res).Detect()
	tr.end(s)
	tr.end(root)
	rec.lat = time.Since(start)

	rec.row = rowOf(res, 0, 0)
	rec.races = len(races)
	rec.fast = res.FastPath
	rec.procs = res.ProcAnalyses
	rec.memoH, rec.memoM = res.Metrics.CallMemoHits, res.Metrics.CallMemoMisses
	if tr != nil {
		t0 := time.Now()
		s := tr.begin("pfg", -1, id)
		pfg.BuildProgram(irProg)
		tr.end(s)
		rec.pfg = time.Since(t0)
	}
	return rec
}

// window runs whole passes until d has elapsed; every pass is a round.
// The separate flow-graph builds of a traced op are not part of the
// pipeline and do not count in its round's time.
func (w *oneshot) window(d time.Duration, tr *tracer) ([]oneshotOp, []round) {
	var ops []oneshotOp
	var rounds []round
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		var r round
		t0, cpu := time.Now(), sampleCPU()
		for _, pi := range w.in.passes[pass%len(w.in.passes)] {
			o := w.op(pi, tr, tr.op())
			ops = append(ops, o)
			r.add(o.lat, o.first, o.failed != nil)
			r.busy -= o.pfg
		}
		r.busy += time.Since(t0)
		r.steal = stolen(cpu, sampleCPU())
		rounds = append(rounds, r)
	}
	return ops, rounds
}

func runOneshot(cfg config, parts ...partition) (*report, error) {
	w := &oneshot{}
	setup, err := timeSetup(cfg.setupReps, func() error {
		progs, err := loadPrograms(cfg.root, parts...)
		if err != nil {
			return err
		}
		w.progs = progs
		w.in = genInputs(cfg.workload, progs, cfg.seed, cfg.window)
		w.races = make([]int, len(progs))
		for i := range progs { // the untimed warm-up pass
			rec := w.op(i, nil, i)
			if rec.failed != nil {
				return rec.failed
			}
			w.races[i] = rec.races
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{digest: w.in.digest()}

	if !cfg.trace {
		ops, rounds := w.window(cfg.window, nil)
		rss := selfPeakRSSMB()
		w.check(rep, ops)
		vals := map[string]float64{
			"setup_s":           setup,
			"refined_read_frac": 1,
			"peak_rss_mb":       rss,
		}
		roundMetrics(rep, vals, rounds)
		rep.info = append(rep.info, tail(rounds), metric{"rounds", float64(len(rounds)), "count", len(ops)})
		rep.setMetrics(endToEnd, vals, len(ops))
		return rep, nil
	}

	// Every quarter replays the same passes from the first.
	tr := newTracer()
	var ops, plain []oneshotOp
	overhead, err := tracedRun(tr, func(t *tracer) (float64, error) {
		q, rounds := w.window(cfg.window/4, t)
		if t == nil {
			plain = append(plain, q...)
		} else {
			ops = append(ops, q...)
		}
		return rate(rounds), nil
	})
	if err != nil {
		return nil, err
	}
	w.check(rep, plain)
	w.check(rep, ops)
	if err := tr.write(cfg.traceFile); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	w.checkCoverage(rep, tr)

	layers := tr.layers()
	n := float64(len(ops))
	perOp := func(name string) float64 { return ms(time.Duration(layers[name].selfNs)) / n }
	var rounds, contexts, procs, memoH, memoM, fast, races float64
	for _, o := range ops {
		rounds += float64(o.row.rounds)
		contexts += float64(o.row.contexts)
		procs += float64(o.procs)
		memoH += float64(o.memoH)
		memoM += float64(o.memoM)
		races += float64(o.races)
		if o.fast {
			fast++
		}
	}
	vals := map[string]float64{
		"parser.self_ms":       perOp("parser"),
		"sem.self_ms":          perOp("sem"),
		"ir.self_ms":           perOp("ir"),
		"frontend.allocs":      float64(layers["parser"].allocs+layers["sem"].allocs+layers["ir"].allocs) / n,
		"pfg.self_ms":          perOp("pfg"),
		"core.self_ms":         perOp("core"),
		"core.allocs":          float64(layers["core"].allocs) / n,
		"core.rounds":          rounds / n,
		"core.contexts":        contexts / n,
		"core.proc_analyses":   procs / n,
		"core.memo_hit_ratio":  ratio(memoH, memoH+memoM),
		"core.fastpath_share":  fast / n,
		"race.self_ms":         perOp("race"),
		"race.reported":        races / n,
		"runtime.gc_cpu_frac":  tr.gc.frac(),
		"runtime.heap_peak_mb": float64(tr.heapPeak) / (1 << 20),
		"trace.overhead_frac":  overhead,
	}
	rep.setMetrics(perLayer, vals, len(ops))
	return rep, nil
}

// check compares every op with its program's golden row and the race
// count of the warm-up pass.
func (w *oneshot) check(rep *report, ops []oneshotOp) {
	rep.attempted += len(ops)
	for i, o := range ops {
		p := w.progs[o.prog]
		switch {
		case o.failed != nil:
			rep.fail("op %d (%s): %v", i, p.name, o.failed)
		case !o.row.sameAnalysis(p.golden):
			rep.fail("op %d (%s): row %+v, golden %+v", i, p.name, o.row, p.golden)
		case o.races != w.races[o.prog]:
			rep.fail("op %d (%s): %d races, warm-up pass found %d", i, p.name, o.races, w.races[o.prog])
		}
	}
}

// checkCoverage requires the layer spans to account for at least 95% of
// the traced ops' wall time. The share is taken over all ops together: a
// single op of a tenth of a millisecond can lose a larger share to one
// preemption between two spans.
func (w *oneshot) checkCoverage(rep *report, tr *tracer) {
	var opNs, covered int64
	var shares []float64
	for _, c := range tr.coverage("op") {
		opNs += c.opNs
		covered += c.coveredNs
		shares = append(shares, float64(c.coveredNs)/float64(c.opNs))
	}
	share := ratio(float64(covered), float64(opNs))
	rep.info = append(rep.info,
		metric{"trace.coverage", share, "ratio", len(shares)},
		metric{"trace.coverage_op_p50", quantile(shares, 0.5), "ratio", len(shares)},
		metric{"trace.coverage_op_min", quantile(shares, 0), "ratio", len(shares)})
	if share < 0.95 {
		rep.fail("layer spans cover %.3f of the traced op time, under 0.95", share)
	}
}
