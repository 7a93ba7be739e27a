package mtpa_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mtpa"
	"mtpa/internal/bench"
	"mtpa/internal/flowinsens"
	"mtpa/internal/locset"
)

// compileOne compiles one corpus program for the robustness tests.
func compileOne(t *testing.T, name string) *mtpa.Program {
	t.Helper()
	p, err := bench.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mtpa.Compile(name+".clk", p.Source)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestAnalyzeContextCancel cancels an analysis mid-solve and checks the
// three cancellation guarantees: the run unwinds promptly (well under
// 100ms), the error unwraps to context.Canceled through the AnalysisError
// wrapper, and no goroutine outlives the call (a leak would show up in
// the goroutine count).
func TestAnalyzeContextCancel(t *testing.T) {
	prog := compileOne(t, "barnes")
	opts := mtpa.Options{Mode: mtpa.Multithreaded}

	// Baseline: how long an uncancelled analysis takes. Cancelling halfway
	// through lands mid-solve on every machine speed.
	start := time.Now()
	if _, err := prog.Analyze(opts); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)

	before := runtime.NumGoroutine()
	cancelled := false
	for i := 0; i < 10 && !cancelled; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(baseline / 2)
			cancel()
		}()
		res, err := prog.AnalyzeContext(ctx, opts)
		if err == nil {
			// The run won the race against the cancel; the result must be
			// a normal one. Retry — scheduling jitter decides the race.
			if res == nil {
				t.Fatal("nil result without error")
			}
			continue
		}
		cancelled = true
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled analysis returned %v, want context.Canceled in its chain", err)
		}
		var ae *mtpa.AnalysisError
		if !errors.As(err, &ae) {
			t.Errorf("cancellation not wrapped in *AnalysisError: %T", err)
		}
		if res != nil {
			t.Error("cancelled analysis returned a partial result")
		}
		cancel()
	}
	if !cancelled {
		t.Skip("analysis always completed before the cancel fired; machine too fast for this corpus program")
	}

	// Prompt return: a fresh run with an already-cancelled context must
	// come back immediately — the poll fires before the first transfer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if _, err := prog.AnalyzeContext(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled analysis returned %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("pre-cancelled analysis took %v, want <100ms", d)
	}

	// Leak check: nothing the runs started may still be running. Allow
	// the runtime a moment to reap exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before cancellation tests, %d after", before, after)
	}
}

// TestBudgetDegradesNotFails checks graceful degradation: an absurd solver
// step budget must not fail the analysis — every offending procedure
// context falls back to the flow-insensitive result, the degradations are
// reported, and the final graph still contains the flow-insensitive
// edges for the degraded contexts (the soundness fallback).
func TestBudgetDegradesNotFails(t *testing.T) {
	prog := compileOne(t, "fib")
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	opts.Budget.MaxSolverSteps = 1
	res, err := prog.Analyze(opts)
	if err != nil {
		t.Fatalf("budgeted analysis failed instead of degrading: %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("a 1-step budget degraded no contexts")
	}
	for _, d := range res.Degraded {
		if d.Proc == "" || d.Reason == "" {
			t.Errorf("degradation record missing proc or reason: %+v", d)
		}
	}
	if res.Metrics.DegradedContexts != len(res.Degraded) {
		t.Errorf("metrics report %d degraded contexts, result lists %d",
			res.Metrics.DegradedContexts, len(res.Degraded))
	}

	// main's context degraded (everything did), so its exit graph must
	// cover the whole flow-insensitive graph.
	fi := flowinsens.Analyze(prog.IR)
	degradedMain := false
	for _, d := range res.Degraded {
		if d.Proc == "main" {
			degradedMain = true
		}
	}
	if degradedMain {
		for _, e := range fi.Graph.Edges() {
			if !res.MainOut.C.Has(e.Src, e.Dst) {
				tab := prog.Table()
				t.Errorf("degraded main is missing flow-insensitive edge %s->%s",
					tab.String(e.Src), tab.String(e.Dst))
			}
		}
	}

	// An unbudgeted run of the same program reports no degradations.
	clean, err := prog.Analyze(mtpa.Options{Mode: mtpa.Multithreaded})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Degraded) != 0 {
		t.Errorf("unbudgeted run reports degradations: %+v", clean.Degraded)
	}
}

// TestBudgetWallTimeDegrades checks the wall-clock budget: an expired
// deadline degrades rather than fails, unlike a cancelled context.
func TestBudgetWallTimeDegrades(t *testing.T) {
	prog := compileOne(t, "cholesky")
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	opts.Budget.MaxWallTime = time.Nanosecond
	res, err := prog.Analyze(opts)
	if err != nil {
		t.Fatalf("wall-time budget failed the run: %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("an expired wall-time budget degraded no contexts")
	}
}

// TestBudgetedResultStillSound replays the dynamic-coverage invariant on a
// degraded result: every flow-sensitive edge of the budgeted run must
// still appear in the flow-insensitive graph or target unk — degradation
// only ever adds flow-insensitive edges, so the containment that holds
// for clean runs must hold for degraded ones.
func TestBudgetedResultStillSound(t *testing.T) {
	prog := compileOne(t, "fib")
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	opts.Budget.MaxSolverSteps = 1
	res, err := prog.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	fi := flowinsens.Analyze(prog.IR)
	tab := prog.Table()
	for _, e := range res.MainOut.C.Edges() {
		if e.Dst == locset.UnkID {
			continue
		}
		if !fi.Graph.Has(e.Src, e.Dst) {
			t.Errorf("degraded edge %s->%s missing from the flow-insensitive graph",
				tab.String(e.Src), tab.String(e.Dst))
		}
	}
}
