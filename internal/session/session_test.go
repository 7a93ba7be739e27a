// The session correctness bar: a warm Update must be observably
// identical to a cold Compile+Analyze of the same source. The
// differential sweep here perturbs every procedure of every corpus
// program one at a time and compares result fingerprints between the
// incremental and the one-shot pipelines.

package session_test

import (
	"strings"
	"testing"

	"mtpa"
	"mtpa/internal/bench"
	"mtpa/internal/lexer"
	"mtpa/internal/parser"
	"mtpa/internal/token"
)

// coldFingerprint runs the one-shot pipeline and fingerprints the result.
func coldFingerprint(t *testing.T, filename, src string, opts mtpa.Options) string {
	t.Helper()
	prog, err := mtpa.Compile(filename, src)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	res, err := prog.Analyze(opts)
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	return res.Fingerprint()
}

// offsetOf converts a 1-based line/column position to a byte offset.
func offsetOf(src string, pos token.Pos) int {
	off := 0
	for line := 1; line < pos.Line; line++ {
		nl := strings.IndexByte(src[off:], '\n')
		if nl < 0 {
			return len(src)
		}
		off += nl + 1
	}
	return off + pos.Col - 1
}

// procEdits returns one semantics-preserving edit per procedure segment:
// the source with a newline inserted right after the procedure's opening
// brace. The edit changes the segment's content hash (intra-segment
// positions shift) and the anchors of everything below it, exercising
// both the re-parse and the summary-invalidation paths.
func procEdits(t *testing.T, filename, src string) []string {
	t.Helper()
	lx := lexer.New(filename, src)
	toks := lx.All()
	if len(lx.Errors()) > 0 {
		t.Fatalf("lex errors in %s", filename)
	}
	segs, ok := parser.SegmentTokens(toks)
	if !ok {
		t.Fatalf("cannot segment %s", filename)
	}
	var edits []string
	for _, seg := range segs {
		if seg.Kind != parser.SegProc {
			continue
		}
		for _, tok := range seg.Toks {
			if tok.Kind == token.LBRACE {
				off := offsetOf(src, tok.Pos) + 1
				edits = append(edits, src[:off]+"\n"+src[off:])
				break
			}
		}
	}
	return edits
}

// digitBump returns the source with the last digit of its first numeric
// literal inside a procedure changed, or "" if there is none. A value
// edit flows into lowered constants, exercising content-hash (not just
// position) invalidation.
func digitBump(t *testing.T, filename, src string) string {
	t.Helper()
	lx := lexer.New(filename, src)
	toks := lx.All()
	segs, ok := parser.SegmentTokens(toks)
	if !ok {
		t.Fatalf("cannot segment %s", filename)
	}
	for _, seg := range segs {
		if seg.Kind != parser.SegProc {
			continue
		}
		for _, tok := range seg.Toks {
			if tok.Kind != token.INT || len(tok.Lit) == 0 {
				continue
			}
			off := offsetOf(src, tok.Pos) + len(tok.Lit) - 1
			old := src[off]
			if old < '0' || old > '9' {
				continue
			}
			repl := byte('1')
			if old == '1' {
				repl = '2'
			}
			return src[:off] + string(repl) + src[off+1:]
		}
	}
	return ""
}

// TestWarmEqualsColdAfterEveryProcEdit is the differential sweep: for
// every corpus program, a session analyses the original source, then
// every single-procedure perturbation, and each warm result must
// fingerprint-match a cold run of the identical source.
func TestWarmEqualsColdAfterEveryProcEdit(t *testing.T) {
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	progs, err := bench.Programs()
	if err != nil {
		t.Fatal(err)
	}
	shortSet := map[string]bool{"fib": true, "magic": true, "knapsack": true, "pousse": true}
	for _, p := range progs {
		if testing.Short() && !shortSet[p.Name] {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			filename := p.Name + ".clk"
			sess := mtpa.NewSession(opts)

			up, err := sess.Update(filename, p.Source)
			if err != nil {
				t.Fatalf("warm base update: %v", err)
			}
			if got, want := up.Result.Fingerprint(), coldFingerprint(t, filename, p.Source, opts); got != want {
				t.Fatalf("base: warm fingerprint %s != cold %s", got, want)
			}

			variants := procEdits(t, filename, p.Source)
			if b := digitBump(t, filename, p.Source); b != "" {
				variants = append(variants, b)
			}
			for i, edited := range variants {
				up, err := sess.Update(filename, edited)
				if err != nil {
					t.Fatalf("edit %d: warm update: %v", i, err)
				}
				if got, want := up.Result.Fingerprint(), coldFingerprint(t, filename, edited, opts); got != want {
					t.Fatalf("edit %d: warm fingerprint %s != cold %s (hits=%d misses=%d cold=%v nosseed=%v)",
						i, got, want, up.Stats.Seed.Hits, up.Stats.Seed.Misses,
						up.Stats.ColdCompile, up.Stats.SeederDisabled)
				}
			}
		})
	}
}

// TestWarmEqualsColdRecordPoints repeats the sweep on one program with
// per-point recording on, where the engine seeds nothing: every program
// point must come from a real solve.
func TestWarmEqualsColdRecordPoints(t *testing.T) {
	opts := mtpa.Options{Mode: mtpa.Multithreaded, RecordPoints: true}
	p, err := bench.Load("magic")
	if err != nil {
		t.Fatal(err)
	}
	filename := "magic.clk"
	sess := mtpa.NewSession(opts)
	if _, err := sess.Update(filename, p.Source); err != nil {
		t.Fatal(err)
	}
	for i, edited := range procEdits(t, filename, p.Source) {
		up, err := sess.Update(filename, edited)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if got, want := up.Result.Fingerprint(), coldFingerprint(t, filename, edited, opts); got != want {
			t.Fatalf("edit %d: warm fingerprint %s != cold %s", i, got, want)
		}
	}
}

// TestSessionErrorParity: malformed updates must report the exact
// diagnostics the one-shot pipeline reports, and the session must keep
// working afterwards.
func TestSessionErrorParity(t *testing.T) {
	cases := []struct{ name, src string }{
		{"syntax", "int main( {\n  return 0;\n}\n"},
		{"unterminated", "int main() {\n  return 0;\n"},
		{"check", "int main() {\n  x = 1;\n  return 0;\n}\n"},
		{"redefined", "struct s { int a; };\nstruct s { int b; };\nint main() { return 0; }\n"},
		{"lexical", "int main() {\n  return 0 @ 1;\n}\n"},
	}
	sess := mtpa.NewSession(mtpa.Options{Mode: mtpa.Multithreaded})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, coldErr := mtpa.Compile("bad.clk", tc.src)
			if coldErr == nil {
				t.Fatalf("expected cold compile error")
			}
			_, warmErr := sess.Update("bad.clk", tc.src)
			if warmErr == nil {
				t.Fatalf("expected warm update error")
			}
			if coldErr.Error() != warmErr.Error() {
				t.Fatalf("diagnostic mismatch:\ncold: %v\nwarm: %v", coldErr, warmErr)
			}
		})
	}
	// The session still analyses good input after the failures.
	p, err := bench.Load("fib")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update("fib.clk", p.Source); err != nil {
		t.Fatalf("session unusable after errors: %v", err)
	}
}

// TestSessionWarmSmoke asserts the headline behaviour: after a one-line
// edit, the re-analysis is served substantially from retained summaries.
func TestSessionWarmSmoke(t *testing.T) {
	p, err := bench.Load("magic")
	if err != nil {
		t.Fatal(err)
	}
	sess := mtpa.NewSession(mtpa.Options{Mode: mtpa.Multithreaded})
	if _, err := sess.Update("magic.clk", p.Source); err != nil {
		t.Fatal(err)
	}
	edits := procEdits(t, "magic.clk", p.Source)
	// Perturb the last procedure (main): everything above it keeps both
	// its parse and its summaries.
	up, err := sess.Update("magic.clk", edits[len(edits)-1])
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Seed.Hits == 0 {
		t.Fatalf("no summary hits on warm re-analysis: %+v", up.Stats)
	}
	if up.Stats.ProcsReused == 0 {
		t.Fatalf("no procedure ASTs reused: %+v", up.Stats)
	}
	if up.Stats.ColdCompile || up.Stats.SeederDisabled {
		t.Fatalf("expected incremental path: %+v", up.Stats)
	}
	// A byte-identical re-update is served from the result cache.
	up2, err := sess.Update("magic.clk", edits[len(edits)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !up2.Stats.ResultCached {
		t.Fatalf("identical source missed the result cache: %+v", up2.Stats)
	}
}

// TestSessionConcurrentUpdates exercises the shared store from parallel
// goroutines (meaningful under -race).
func TestSessionConcurrentUpdates(t *testing.T) {
	names := []string{"fib", "knapsack", "magic"}
	type job struct {
		filename    string
		src, edited string
	}
	var jobs []job
	for _, name := range names {
		p, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		filename := name + ".clk"
		jobs = append(jobs, job{filename, p.Source, procEdits(t, filename, p.Source)[0]})
	}
	sess := mtpa.NewSession(mtpa.Options{Mode: mtpa.Multithreaded})
	done := make(chan error, len(jobs))
	for _, j := range jobs {
		j := j
		go func() {
			for i := 0; i < 2; i++ {
				if _, err := sess.Update(j.filename, j.src); err != nil {
					done <- err
					return
				}
				if _, err := sess.Update(j.filename, j.edited); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for range jobs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
