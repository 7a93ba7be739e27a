package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtpa"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// runCLI invokes run with defaults matching the flag defaults, letting a
// test override the interesting knobs.
func runCLI(t *testing.T, out, errOut *bytes.Buffer, mode string, summary, accesses, stats, raceFlag bool, corpus string, args ...string) error {
	t.Helper()
	return run(out, errOut, config{
		mode: mode, summary: summary, accesses: accesses, stats: stats,
		race: raceFlag, seed: 1, corpus: corpus, args: args,
	})
}

func TestSummaryGoldenMultithreaded(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := runCLI(t, &out, &errOut, "mt", true, false, false, false, "", "testdata/simple.clk"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simple_mt.golden", out.Bytes())
	if errOut.Len() != 0 {
		t.Errorf("unexpected diagnostics: %s", errOut.String())
	}
}

func TestSummaryGoldenSequential(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := runCLI(t, &out, &errOut, "seq", true, false, false, false, "", "testdata/simple.clk"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simple_seq.golden", out.Bytes())
}

func TestAccessesGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := runCLI(t, &out, &errOut, "mt", false, true, false, false, "", "testdata/simple.clk"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simple_accesses.golden", out.Bytes())
}

func TestRaceGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := runCLI(t, &out, &errOut, "mt", false, false, false, true, "", "testdata/simple.clk"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simple_race.golden", out.Bytes())
}

func TestCorpusSummaryGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := runCLI(t, &out, &errOut, "mt", true, false, false, false, "fib"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fib_mt.golden", out.Bytes())
}

// TestTieredFlag smoke-tests -tiered on both partitions: the tier-0
// line appears before the summary, the tier-1 line names the engine
// (fast path on a sequential program, full engine on a parallel one),
// and the refined summary equals the untier run's.
func TestTieredFlag(t *testing.T) {
	for _, tc := range []struct {
		corpus string
		engine string
	}{
		{"fib", "full engine"},
		{"seqfib", "sequential fast path"}, // sequential-partition corpus name
	} {
		var out, errOut bytes.Buffer
		cfg := config{mode: "mt", summary: true, tiered: true, seed: 1, corpus: tc.corpus}
		if err := run(&out, &errOut, cfg); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		if !strings.Contains(s, "== tier 0: flow-insensitive answer in ") {
			t.Errorf("no tier-0 line:\n%s", s)
		}
		if !strings.Contains(s, "== tier 1: flow-sensitive refinement in ") ||
			!strings.Contains(s, "("+tc.engine+") ==") {
			t.Errorf("tier-1 line missing or wrong engine (want %s):\n%s", tc.engine, s)
		}
		if !strings.Contains(s, "points-to graph at main's exit") {
			t.Errorf("refined summary missing:\n%s", s)
		}
	}

	// Batch mode (-repeat 2): the tiered path flows through the session;
	// the second pass is a whole-file cache hit.
	var out, errOut bytes.Buffer
	cfg := config{mode: "mt", summary: true, tiered: true, seed: 1, corpus: "fib", repeat: 2}
	if err := run(&out, &errOut, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "whole-file result cache: 1 hit(s)") {
		t.Errorf("tiered batch did not hit the whole-file cache:\n%s", out.String())
	}
}

func TestParseErrorDiagnostic(t *testing.T) {
	var out, errOut bytes.Buffer
	err := runCLI(t, &out, &errOut, "mt", true, false, false, false, "", "testdata/parse_error.clk")
	if err == nil {
		t.Fatal("expected a parse error")
	}
	msg := err.Error()
	// The diagnostic must carry the file:line:col position and the cause;
	// main prints it to stderr and exits 1.
	if !strings.Contains(msg, "parse_error.clk:3:1") || !strings.Contains(msg, "expected ;") {
		t.Errorf("diagnostic lacks position or cause: %q", msg)
	}
	if out.Len() != 0 {
		t.Errorf("parse failure wrote to stdout: %s", out.String())
	}
	if exitCode(err) != 1 {
		t.Errorf("parse error exit code = %d, want 1", exitCode(err))
	}
	// The one-line form main prints is golden-pinned: position first, then
	// the cause, nothing else.
	checkGolden(t, "parse_error.golden", []byte(diagnostic(err)+"\n"))
}

func TestUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	err := runCLI(t, &out, &errOut, "mt", true, false, false, false, "")
	if err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Errorf("expected usage error, got %v", err)
	}
	if exitCode(err) != 1 {
		t.Errorf("usage error exit code = %d, want 1", exitCode(err))
	}
}

func TestUnknownCorpusError(t *testing.T) {
	var out, errOut bytes.Buffer
	err := runCLI(t, &out, &errOut, "mt", true, false, false, false, "no-such-program")
	if err == nil || !strings.Contains(err.Error(), "unknown program") {
		t.Errorf("expected unknown-program error, got %v", err)
	}
}

func TestDumpPFG(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(&out, &errOut, config{mode: "mt", dumpPFG: true, seed: 1, args: []string{"testdata/simple.clk"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"func main:", "parbegin", "thread-exit"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-dump-pfg output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTimeoutExit checks the -timeout path end to end: an unmeetable
// deadline must abort the analysis with an error that classifies as exit
// code 3, and the failure must identify itself as a deadline, not a crash.
func TestTimeoutExit(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(&out, &errOut, config{
		mode: "mt", summary: true, seed: 1, corpus: "barnes", timeout: time.Nanosecond,
	})
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error does not unwrap to context.DeadlineExceeded: %v", err)
	}
	if exitCode(err) != 3 {
		t.Errorf("timeout exit code = %d, want 3", exitCode(err))
	}
	if out.Len() != 0 {
		t.Errorf("timed-out run wrote to stdout: %s", out.String())
	}
}

// TestMaxStepsDegrades checks the -max-steps path: an absurdly small step
// budget must not fail the run — the offending procedures degrade to the
// flow-insensitive result and the CLI reports each degradation on stderr.
func TestMaxStepsDegrades(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(&out, &errOut, config{
		mode: "mt", summary: true, seed: 1, corpus: "fib", maxSteps: 1,
	})
	if err != nil {
		t.Fatalf("budgeted run failed instead of degrading: %v", err)
	}
	if !strings.Contains(errOut.String(), "degraded to flow-insensitive") {
		t.Errorf("no degradation report on stderr:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "points-to graph at main's exit") {
		t.Errorf("degraded run produced no summary:\n%s", out.String())
	}
}

// TestExitCodeClassification pins the documented exit-code mapping.
func TestExitCodeClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"usage", fmt.Errorf("usage: mtpa"), 1},
		{"parse", &mtpa.ParseError{File: "x.clk", Stage: "parse", Err: fmt.Errorf("bad")}, 1},
		{"analysis", &mtpa.AnalysisError{File: "x.clk", Err: fmt.Errorf("diverged")}, 2},
		{"ice", &mtpa.ICEError{Msg: "boom"}, 2},
		{"deadline", &mtpa.AnalysisError{File: "x.clk", Err: context.DeadlineExceeded}, 3},
		{"cancel", fmt.Errorf("wrapped: %w", context.Canceled), 3},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode = %d, want %d", c.name, got, c.want)
		}
	}
}
