package bench

import (
	"fmt"
	"strings"
	"testing"

	"mtpa"
	"mtpa/internal/flowinsens"
	"mtpa/internal/locset"
	"mtpa/internal/ptgraph"
)

// TestAblationMatrix runs the corpus under every combination of the four
// ablation switches and checks the soundness invariant that survives all
// of them: every flow-sensitive edge at main's exit (unk excepted, see
// TestFlowInsensSoundness) is contained in the flow-insensitive
// Andersen-style graph. Ghost-merging ablation can legitimately diverge on
// recursive programs — contexts then proliferate without bound — so the
// valves are set tight and valve errors are tolerated; any program that
// does converge must still be sound.
func TestAblationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("16-combination corpus sweep is slow in -short mode")
	}
	for mask := 0; mask < 16; mask++ {
		if raceEnabled && mask > 8 {
			// Under the race detector the full 16-combination sweep blows
			// past go test's package timeout; cover the pre-memo eight
			// combinations plus the memo-off row (mask 8). The soundness
			// property is race-independent — the remaining combinations run
			// in every non-race invocation.
			continue
		}
		opts := mtpa.Options{
			Mode:                 mtpa.Multithreaded,
			DisableContextCache:  mask&1 != 0,
			DisableStrongUpdates: mask&2 != 0,
			DisableGhostMerging:  mask&4 != 0,
			DisableCallMemo:      mask&8 != 0,
			MaxRounds:            50,
			MaxContexts:          2000,
		}
		name := fmt.Sprintf("cache=%v,strong=%v,ghost=%v,memo=%v",
			!opts.DisableContextCache, !opts.DisableStrongUpdates, !opts.DisableGhostMerging,
			!opts.DisableCallMemo)
		t.Run(name, func(t *testing.T) {
			results, err := AnalyzeAll(opts, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if r.Err != nil {
					if opts.DisableGhostMerging && (strings.Contains(r.Err.Error(), "context limit") ||
						strings.Contains(r.Err.Error(), "did not converge")) {
						continue // a valve fired, as documented
					}
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
							t.Errorf("%s: edge %s->%s escapes the flow-insensitive graph",
								r.Name, tab.String(e.Src), tab.String(e.Dst))
						}
					}
				}
			}
		})
	}
}

// BenchmarkAnalyzeAll measures the whole-corpus analysis with one driver
// worker and with GOMAXPROCS driver workers (programs analysed side by
// side). The two produce bit-identical results; the benchmark quantifies
// what the program-level concurrency buys on the current machine.
func BenchmarkAnalyzeAll(b *testing.B) {
	bench := func(b *testing.B, opts mtpa.Options, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, err := AnalyzeAll(opts, workers)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		bench(b, mtpa.Options{Mode: mtpa.Multithreaded}, 1)
	})
	b.Run("parallel", func(b *testing.B) {
		bench(b, mtpa.Options{Mode: mtpa.Multithreaded}, 0)
	})
}
