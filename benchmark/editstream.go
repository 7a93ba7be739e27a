// edit-stream: the editor/watch-loop user. One incremental session holds
// all 33 corpus files; the seeded script edits them in bursts, and every
// edit goes through the session exactly as Session.UpdateTiered does —
// StageUpdate, the tier-0 FlowInsens answer, then RunStaged — inline on
// one goroutine, in a closed loop.

package main

import (
	"context"
	"fmt"
	"time"

	"mtpa/internal/core"
	"mtpa/internal/session"
)

// storeCapacity bounds the session's artifact store. It fills within the
// warm-up cycle, so eviction runs throughout the measured cycles and peak
// memory levels off; at the default bound (8192) the cached results of
// old versions would take about a gigabyte first. A cycle touches about
// 1050 entries (per edit a result and a procedure AST; the ~320 context
// summaries and 33 environments of all files once), and a file's bursts
// are one cycle apart, so at twice that the store evicts only what no
// cycle has touched since: old versions and stale summaries, never part
// of a live file's summaries. At 1024 it did, and a run seeded from the
// summaries that survived could differ from a cold run (see README.md,
// "Known issues").
const storeCapacity = 2048

type editOp struct {
	edit        int // index into inputs.edits
	first       time.Duration
	lat         time.Duration
	cached      bool
	fingerprint string
	row         row // rounds and contexts are run shape on a warm run; only C, E and tier-0 are checked
	procs       int
	memoH       int
	memoM       int
	seedH       int
	seedM       int
	parsed      int
	reused      int
	failed      error
}

type editStream struct {
	progs []*program
	in    *inputs
	sess  *session.Session
}

// update runs one version of one file through the session.
func (w *editStream) update(p *program, src string, tr *tracer, id int) (editOp, *core.Result) {
	var rec editOp
	start := time.Now()
	root := tr.begin("op", -1, id)
	s := tr.begin("session.stage", root, id)
	st, err := w.sess.StageUpdate(p.file, src)
	tr.end(s)
	if err != nil {
		tr.end(root)
		rec.failed = err
		return rec, nil
	}
	s = tr.begin("flowinsens", root, id)
	fiG, fiIters := st.FlowInsens()
	tr.end(s)
	rec.first = time.Since(start)
	s = tr.begin("session.run", root, id)
	res, stats, err := w.sess.RunStaged(context.Background(), st, fiG)
	tr.end(s)
	tr.end(root)
	rec.lat = time.Since(start)
	if err != nil {
		rec.failed = err
		return rec, nil
	}
	rec.cached = stats.ResultCached
	rec.row = rowOf(res, fiG.Len(), fiIters)
	rec.procs = res.ProcAnalyses
	rec.memoH, rec.memoM = res.Metrics.CallMemoHits, res.Metrics.CallMemoMisses
	rec.seedH, rec.seedM = stats.Seed.Hits, stats.Seed.Misses
	rec.parsed, rec.reused = stats.ProcsParsed, stats.ProcsReused
	return rec, res
}

// cycles runs whole cycles of the script, from cycle next on, until d of
// edit time has elapsed; every cycle is a round. It returns the cycle to
// run next. Rendering the source and fingerprinting the result are input
// and output capture; the clock stops for them.
func (w *editStream) cycles(next int, d time.Duration, tr *tracer) ([]editOp, []round, int) {
	var ops []editOp
	var rounds []round
	var spent time.Duration
	n := len(w.progs) * burstLen
	c := next
	for ; c == next || spent < d; c++ {
		var r round
		first := c % (len(w.in.edits) / n) * n
		start, cpu := time.Now(), sampleCPU()
		for i := first; i < first+n; i++ {
			e := w.in.edits[i]
			p := w.progs[e.prog]
			c0 := time.Now()
			src := p.source(w.in.versions[e.prog][e.version])
			r.busy -= time.Since(c0)
			rec, res := w.update(p, src, tr, tr.op())
			c1 := time.Now()
			rec.edit = i
			if res != nil {
				rec.fingerprint = res.Fingerprint()
			}
			ops = append(ops, rec)
			r.add(rec.lat, rec.first, rec.failed != nil)
			r.busy -= time.Since(c1)
		}
		r.busy += time.Since(start)
		r.steal = stolen(cpu, sampleCPU())
		spent += r.busy
		rounds = append(rounds, r)
	}
	return ops, rounds, c
}

func runEditStream(cfg config) (*report, error) {
	w := &editStream{}
	setup, err := timeSetup(cfg.setupReps, func() error {
		progs, err := loadPrograms(cfg.root, paperCorpus, seqCorpus, unstrCorpus)
		if err != nil {
			return err
		}
		if cfg.files > 0 {
			progs = progs[:min(cfg.files, len(progs))]
		}
		w.progs = progs
		w.in = genInputs(cfg.workload, progs, cfg.seed, cfg.window)
		w.sess = session.New(analysisOpts, storeCapacity)
		for i, p := range progs {
			if rec, _ := w.update(p, p.src, nil, i); rec.failed != nil {
				return rec.failed
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{digest: w.in.digest()}
	// Cycle 0 is an untimed warm-up: it fills the store to its bound and
	// gives every file a history to undo into, so the measured cycles all
	// start from a session in the same kind of state.
	_, _, next := w.cycles(0, 0, nil)

	if !cfg.trace {
		ops, rounds, _ := w.cycles(next, cfg.window, nil)
		rss := selfPeakRSSMB() // before the checks, which run analyses of their own
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

	// The quarters run on through the script's cycles in one session;
	// every cycle has the same composition, so the quarters compare.
	tr := newTracer()
	var ops, plain []editOp
	evicted := 0
	overhead, err := tracedRun(tr, func(t *tracer) (float64, error) {
		evicted0 := evictions(w.sess.Stats().Store)
		q, rounds, after := w.cycles(next, cfg.window/4, t)
		next = after
		if t == nil {
			plain = append(plain, q...)
		} else {
			ops = append(ops, q...)
			evicted += evictions(w.sess.Stats().Store) - evicted0
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

	layers := tr.layers()
	n := float64(len(ops))
	perOp := func(name string) float64 { return ms(time.Duration(layers[name].selfNs)) / n }
	// Counters of the analysis are per run: a whole-file hit runs nothing.
	var runs, fiIters, rounds, contexts, procs, memoH, memoM, seedH, seedM, parsed, reused float64
	for _, o := range ops {
		if o.failed != nil || o.cached {
			continue
		}
		runs++
		fiIters += float64(o.row.fiIters)
		rounds += float64(o.row.rounds)
		contexts += float64(o.row.contexts)
		procs += float64(o.procs)
		memoH += float64(o.memoH)
		memoM += float64(o.memoM)
		seedH += float64(o.seedH)
		seedM += float64(o.seedM)
		parsed += float64(o.parsed)
		reused += float64(o.reused)
	}
	vals := map[string]float64{
		"flowinsens.self_ms":         perOp("flowinsens"),
		"flowinsens.iterations":      ratio(fiIters, runs),
		"core.rounds":                ratio(rounds, runs),
		"core.contexts":              ratio(contexts, runs),
		"core.proc_analyses":         ratio(procs, runs),
		"core.memo_hit_ratio":        ratio(memoH, memoH+memoM),
		"session.stage_ms":           perOp("session.stage"),
		"session.run_ms":             perOp("session.run"),
		"session.seed_hit_ratio":     ratio(seedH, seedH+seedM),
		"session.procs_reused_ratio": ratio(reused, reused+parsed),
		"session.result_hit_ratio":   1 - runs/n,
		"store.evictions":            float64(evicted),
		"runtime.gc_cpu_frac":        tr.gc.frac(),
		"runtime.heap_peak_mb":       float64(tr.heapPeak) / (1 << 20),
		"trace.overhead_frac":        overhead,
	}
	rep.setMetrics(perLayer, vals, len(ops))
	return rep, nil
}

func evictions(st map[string]session.KindStats) int {
	n := 0
	for _, k := range st {
		n += k.Evictions
	}
	return n
}

// check compares every edit with the golden row of its program (C and E
// edges and the tier-0 answer on the warm result; the full row on the
// cold one) and its fingerprint with a cold Compile+Analyze of the same
// source.
func (w *editStream) check(rep *report, ops []editOp) {
	rep.attempted += len(ops)
	type key struct{ prog, version int }
	jobIdx := map[key]int{}
	var jobs []coldJob
	for _, o := range ops {
		e := w.in.edits[o.edit]
		k := key{e.prog, e.version}
		if _, ok := jobIdx[k]; !ok && o.failed == nil {
			p := w.progs[e.prog]
			jobIdx[k] = len(jobs)
			jobs = append(jobs, coldJob{p.file, p.source(w.in.versions[e.prog][e.version])})
		}
	}
	refs := coldAnswers(jobs)
	for i, o := range ops {
		e := w.in.edits[o.edit]
		p := w.progs[e.prog]
		if o.failed != nil {
			rep.fail("edit %d (%s v%d): %v", i, p.name, e.version, o.failed)
			continue
		}
		ref := refs[jobIdx[key{e.prog, e.version}]]
		g := p.golden
		switch {
		case ref.err != nil:
			rep.fail("edit %d (%s v%d): cold run: %v", i, p.name, e.version, ref.err)
		case ref.row != g:
			rep.fail("edit %d (%s v%d): cold row %+v, golden %+v", i, p.name, e.version, ref.row, g)
		case o.row.cEdges != g.cEdges || o.row.eEdges != g.eEdges || o.row.fiEdges != g.fiEdges || o.row.fiIters != g.fiIters:
			rep.fail("edit %d (%s v%d): warm row %+v, golden %+v", i, p.name, e.version, o.row, g)
		case o.fingerprint != ref.fingerprint:
			rep.fail("edit %d (%s v%d): warm fingerprint differs from cold", i, p.name, e.version)
		}
	}
}
