// The calls into the analyser's layers, shared by the workloads, and the
// cold reference every warm or served answer is checked against.

package main

import (
	"context"
	"fmt"
	"sync"

	"mtpa/internal/core"
	"mtpa/internal/flowinsens"
	"mtpa/internal/ir"
	"mtpa/internal/parser"
	"mtpa/internal/race"
	"mtpa/internal/sem"
)

// analysisOpts are the default options, as mtpa.Options{} and every mtpad
// tenant use them.
var analysisOpts = core.Options{Mode: core.Multithreaded}

// refOpts run the cold reference on the sequential engine, one worker per
// analysis: its results are bit-identical to those at any worker count,
// and two references side by side use both CPUs better than one
// parallel analysis at a time.
var refOpts = core.Options{Mode: core.Multithreaded, FixpointWorkers: 1, ParWorkers: 1}

// compile runs the front end exactly as mtpa.Compile does: parse, check,
// lower, with a span around each stage.
func compile(file, src string, tr *tracer, parent, op int) (*ir.Program, error) {
	s := tr.begin("parser", parent, op)
	astProg, err := parser.Parse(file, src)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", file, err)
	}
	s = tr.begin("sem", parent, op)
	info, diags := sem.Check(astProg)
	tr.end(s)
	if hard := diags.HardErrors(); len(hard) > 0 {
		return nil, fmt.Errorf("check %s: %w", file, hard)
	}
	s = tr.begin("ir", parent, op)
	irProg, err := ir.Lower(info)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("lower %s: %w", file, err)
	}
	return irProg, nil
}

// rowOf extracts a result's golden-row columns.
func rowOf(res *core.Result, fiEdges, fiIters int) row {
	return row{
		cEdges: res.MainOut.C.Len(), eEdges: res.MainOut.E.Len(),
		contexts: res.ContextsTotal(), rounds: res.Rounds,
		fiEdges: fiEdges, fiIters: fiIters,
	}
}

// sameAnalysis compares the flow-sensitive columns only.
func (r row) sameAnalysis(g row) bool {
	return r.cEdges == g.cEdges && r.eEdges == g.eEdges && r.contexts == g.contexts && r.rounds == g.rounds
}

// coldRef is the one-shot answer for one source: compile, analysis,
// flow-insensitive tier-0 and race detection, each fresh.
type coldRef struct {
	fingerprint string
	row         row
	races       int
	err         error
}

func coldAnswer(file, src string) coldRef {
	irProg, err := compile(file, src, nil, -1, 0)
	if err != nil {
		return coldRef{err: err}
	}
	res, err := core.AnalyzeContext(context.Background(), irProg, refOpts)
	if err != nil {
		return coldRef{err: fmt.Errorf("analyze %s: %w", file, err)}
	}
	fi := flowinsens.Analyze(irProg)
	return coldRef{
		fingerprint: res.Fingerprint(),
		row:         rowOf(res, fi.Graph.Len(), fi.Iterations),
		races:       len(race.New(irProg, res).Detect()),
	}
}

// coldJob names one source to answer cold.
type coldJob struct{ file, src string }

// coldAnswers computes the cold answers of jobs on two goroutines. It
// runs after the measured window, so it may use both CPUs.
func coldAnswers(jobs []coldJob) []coldRef {
	out := make([]coldRef, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = coldAnswer(jobs[i].file, jobs[i].src)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
