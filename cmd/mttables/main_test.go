package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// TestTableGoldens locks the stable table renderings over the corpus: the
// program characteristics (Table 1), the per-access location-set counts
// (Tables 2 and 4, Figures 8 and 9), the convergence measurements
// (Table 3) and the context-cache and call-memo counters. All are
// deterministic functions of the corpus sources and the sequential
// analysis; the timing figure (fig10) is excluded.
func TestTableGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus table rendering is slow in -short mode")
	}
	goldens := []struct{ table, file string }{
		{"1", "table1.golden"},
		{"2", "table2.golden"},
		{"3", "table3.golden"},
		{"4", "table4.golden"},
		{"fig8", "fig8.golden"},
		{"fig9", "fig9.golden"},
		{"cache", "cache.golden"},
	}
	for _, g := range goldens {
		var out, errOut bytes.Buffer
		if err := run(context.Background(), &out, &errOut, g.table, 1, 0); err != nil {
			t.Fatalf("table %s: %v", g.table, err)
		}
		checkGolden(t, g.file, out.Bytes())
	}
}

// TestCacheTableSmoke checks the cache/memo statistics render one row per
// program, in the paper's order, and that the corpus produces memo
// traffic. TestTableGoldens pins the exact counters.
func TestCacheTableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus table rendering is slow in -short mode")
	}
	var out, errOut bytes.Buffer
	if err := run(context.Background(), &out, &errOut, "cache", 1, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2+18 {
		t.Fatalf("cache table has %d lines, want a title, a header and 18 rows", len(lines))
	}
	if !strings.Contains(out.String(), "MemoHits") {
		t.Errorf("cache table header missing MemoHits:\n%s", out.String())
	}
	if !strings.Contains(lines[2], "barnes") {
		t.Errorf("first row %q, want the paper's order starting at barnes", lines[2])
	}
}

// TestTableFormattingStable checks structural formatting invariants that
// must hold for any corpus: one row per program in the paper's order, and
// aligned columns (every data row as wide as its header).
func TestTableFormattingStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus table rendering is slow in -short mode")
	}
	var out, errOut bytes.Buffer
	if err := run(context.Background(), &out, &errOut, "3", 1, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) < 2+18 {
		t.Fatalf("table 3 has %d lines, want a title, a header and 18 rows", len(lines))
	}
	rows := lines[2:]
	if len(rows) != 18 {
		t.Errorf("table 3 has %d data rows, want 18", len(rows))
	}
	first := rows[0]
	if !strings.HasPrefix(first, "barnes") {
		t.Errorf("first row %q, want the paper's order starting at barnes", first)
	}
	for _, r := range rows {
		if len(r) != len(rows[0]) {
			t.Errorf("misaligned row %q (width %d, want %d)", r, len(r), len(rows[0]))
		}
	}
}

// TestTierTableGolden locks the tiered-precision table: partition and
// fast-path eligibility per program (the 18 paper programs all reach a
// spawn; the sequential partition must run on the fast engine), plus
// the tier-0 versus refined edge counts. Everything in it is a
// deterministic function of the corpus sources.
func TestTierTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus table rendering is slow in -short mode")
	}
	var out, errOut bytes.Buffer
	if err := run(context.Background(), &out, &errOut, "tier", 1, 0); err != nil {
		t.Fatalf("table tier: %v", err)
	}
	checkGolden(t, "tier.golden", out.Bytes())
}

// TestThreadsTableGolden locks the per-procedure concurrency-site table
// over the unstructured partition. The counts are a function of lowering
// alone.
func TestThreadsTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-partition table rendering is slow in -short mode")
	}
	var out, errOut bytes.Buffer
	if err := run(context.Background(), &out, &errOut, "threads", 1, 0); err != nil {
		t.Fatalf("table threads: %v", err)
	}
	checkGolden(t, "threads.golden", out.Bytes())
}

// TestValidTables pins the closed set of -table names: an unknown name
// must be rejected in main (it used to silently render nothing and exit 0).
func TestValidTables(t *testing.T) {
	for _, name := range []string{"1", "2", "3", "4", "fig8", "fig9", "fig10", "cache", "budget", "tier", "threads", "all"} {
		if !validTables[name] {
			t.Errorf("table %q missing from validTables", name)
		}
	}
	for _, name := range []string{"", "5", "fig11", "Table1", "cahce"} {
		if validTables[name] {
			t.Errorf("invalid table %q accepted", name)
		}
	}
}

// TestBudgetTableSmoke checks the budget/degradation table renders one row
// per program; without a budget no context degrades, so every row reports
// zero degradations.
func TestBudgetTableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus table rendering is slow in -short mode")
	}
	var out, errOut bytes.Buffer
	if err := run(context.Background(), &out, &errOut, "budget", 1, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2+18 {
		t.Fatalf("budget table has %d lines, want a title, a header and 18 rows", len(lines))
	}
	for _, r := range lines[2:] {
		if !strings.HasSuffix(r, "0  -") {
			t.Errorf("unbudgeted row reports a degradation: %q", r)
		}
	}
}

// TestTimeoutAbortsCorpus checks cancellation plumbing through the corpus
// driver: an expired deadline fails every program, the failures are
// reported per program on stderr, and the summary error classifies as a
// timeout (exit code 3 in main).
func TestTimeoutAbortsCorpus(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	var out, errOut bytes.Buffer
	err := run(ctx, &out, &errOut, "3", 1, 0)
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("corpus timeout does not unwrap to context.DeadlineExceeded: %v", err)
	}
	if exitCode(err) != 3 {
		t.Errorf("timeout exit code = %d, want 3", exitCode(err))
	}
	if !strings.Contains(errOut.String(), "mttables:") {
		t.Errorf("no per-program failure reports on stderr:\n%s", errOut.String())
	}
}

// TestUnknownTableDiagnostic golden-pins the one-line diagnostic main
// prints (with the "mttables:" prefix) before exiting 1 on an unknown
// -table name.
func TestUnknownTableDiagnostic(t *testing.T) {
	checkGolden(t, "unknown_table.golden", []byte(unknownTableDiag("bogus")+"\n"))
}
