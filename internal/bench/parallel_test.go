package bench

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"mtpa"
	"mtpa/internal/flowinsens"
	"mtpa/internal/locset"
	"mtpa/internal/ptgraph"
)

var bothModes = []mtpa.Mode{mtpa.Multithreaded, mtpa.Sequential}

// TestParallelCorpus runs the parallel driver at full width and checks that
// every program analyses cleanly and that the results are identical to a
// single-worker run — the analyses are independent and the shared intern
// table must not leak state between them. Under -race this also exercises
// the lock striping of the global set intern table.
func TestParallelCorpus(t *testing.T) {
	for _, mode := range bothModes {
		opts := mtpa.Options{Mode: mode}
		par, err := AnalyzeAll(opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := AnalyzeAll(opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != 18 {
			t.Fatalf("corpus has %d programs, want 18", len(par))
		}
		for i, r := range par {
			if r.Err != nil {
				t.Fatalf("%s %v: %v", r.Name, mode, r.Err)
			}
			s := seq[i]
			if r.Name != s.Name {
				t.Fatalf("result order diverged: %s vs %s", r.Name, s.Name)
			}
			if r.Res.MainOut.C.Len() != s.Res.MainOut.C.Len() ||
				r.Res.MainOut.E.Len() != s.Res.MainOut.E.Len() ||
				r.Res.ContextsTotal() != s.Res.ContextsTotal() ||
				r.Res.Rounds != s.Res.Rounds {
				t.Errorf("%s %v: parallel and single-worker runs disagree", r.Name, mode)
			}
		}
	}
}

// TestGoldenCorpus locks the analysis results on the whole corpus to the
// golden numbers recorded from the original map-based representation: the
// points-to graph sizes at main's exit, the context and round counts, and
// the flow-insensitive baseline. Any representation change that alters an
// analysis result on any program fails here.
func TestGoldenCorpus(t *testing.T) {
	type row struct {
		cEdges, eEdges, contexts, rounds, fiEdges, fiIters int
	}
	golden := map[string]row{}
	f, err := os.Open("testdata/golden_corpus.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name, mode string
		var r row
		if _, err := fmt.Sscanf(line, "%s %s %d %d %d %d %d %d",
			&name, &mode, &r.cEdges, &r.eEdges, &r.contexts, &r.rounds, &r.fiEdges, &r.fiIters); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		golden[name+"/"+mode] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 36 {
		t.Fatalf("golden file has %d rows, want 36", len(golden))
	}

	for _, mode := range bothModes {
		results, err := AnalyzeAll(mtpa.Options{Mode: mode}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%v", r.Err)
			}
			want, ok := golden[r.Name+"/"+mode.String()]
			if !ok {
				t.Errorf("%s %v: no golden row", r.Name, mode)
				continue
			}
			fi := flowinsens.Analyze(r.Prog.IR)
			got := row{
				cEdges: r.Res.MainOut.C.Len(), eEdges: r.Res.MainOut.E.Len(),
				contexts: r.Res.ContextsTotal(), rounds: r.Res.Rounds,
				fiEdges: fi.Graph.Len(), fiIters: fi.Iterations,
			}
			if got != want {
				t.Errorf("%s %v: got %+v, want %+v", r.Name, mode, got, want)
			}
			checkOneSolvePerRound(t, r, mode)
		}
	}
}

// checkOneSolvePerRound pins that the measurements come from the fixed
// point's final round rather than from an extra pass: with the context
// cache on, each context is analysed at most once per round.
func checkOneSolvePerRound(t *testing.T, r CorpusResult, mode mtpa.Mode) {
	t.Helper()
	if bound := r.Res.Rounds * r.Res.ContextsTotal(); r.Res.ProcAnalyses > bound {
		t.Errorf("%s %v: %d procedure analyses > %d rounds × %d contexts",
			r.Name, mode, r.Res.ProcAnalyses, r.Res.Rounds, r.Res.ContextsTotal())
	}
}

// TestShadowDifferential replays the analysis of the whole corpus with the
// differential shadow seam enabled: every graph operation in every transfer
// function is mirrored into the original map-based representation and
// cross-checked node by node. Divergences are recorded, not panicked, so a
// representation bug surfaces here as a test failure listing every
// mismatch (operation, source, edge delta) — debuggable from CI logs.
// This is the strongest equivalence evidence between the two
// representations — it covers every intermediate graph, not just the
// final results.
func TestShadowDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("shadow-mode corpus replay is slow in -short mode")
	}
	ptgraph.SetShadowMode(true)
	ptgraph.ResetDivergences()
	t.Cleanup(func() { ptgraph.SetShadowMode(false) })
	for _, mode := range bothModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			results, err := AnalyzeAll(mtpa.Options{Mode: mode}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if r.Err != nil {
					t.Fatalf("%v", r.Err)
				}
				r.Res.MainOut.C.VerifyShadow()
				r.Res.MainOut.E.VerifyShadow()
			}
			if divs, dropped := ptgraph.Divergences(); len(divs) > 0 {
				for _, d := range divs {
					t.Errorf("shadow divergence %s", d)
				}
				if dropped > 0 {
					t.Errorf("(and %d more divergences dropped)", dropped)
				}
			}
		})
	}
}

// TestFlowInsensSoundness checks the expected precision ordering between
// the two engines: the flow-sensitive multithreaded result at main's exit
// must be contained in the flow-insensitive Andersen-style graph, edge by
// edge. Edges whose target is unk are exempt — the flow-sensitive analysis
// materialises explicit unk edges during path merges and strong updates,
// while the flow-insensitive encoding leaves "points to unk" implicit as
// absence of edges.
func TestFlowInsensSoundness(t *testing.T) {
	results, err := AnalyzeAll(mtpa.Options{Mode: mtpa.Multithreaded}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%v", r.Err)
		}
		fi := flowinsens.Analyze(r.Prog.IR)
		tab := r.Prog.Table()
		for _, g := range []*ptgraph.Graph{r.Res.MainOut.C, r.Res.MainOut.E} {
			for _, e := range g.Edges() {
				if e.Dst == locset.UnkID {
					continue
				}
				if !fi.Graph.Has(e.Src, e.Dst) {
					t.Errorf("%s: flow-sensitive edge %s->%s missing from the flow-insensitive graph",
						r.Name, tab.String(e.Src), tab.String(e.Dst))
				}
			}
		}
	}
}
