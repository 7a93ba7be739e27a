package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"mtpa"
	"mtpa/internal/flowinsens"
	"mtpa/internal/interp"
	"mtpa/internal/ptgraph"
)

// TestGoldenUnstrCorpus locks the analysis results on the unstructured
// partition (thread_create/join + mutex regions) to golden numbers,
// exactly like TestGoldenSeqCorpus does for the sequential partition.
// Regenerate after an intended change with:
//
//	MTPA_WRITE_GOLDEN_UNSTR=1 go test ./internal/bench/ -run TestGoldenUnstrCorpus
func TestGoldenUnstrCorpus(t *testing.T) {
	type row struct {
		fastPath                                           int
		cEdges, eEdges, contexts, rounds, fiEdges, fiIters int
	}
	results := map[mtpa.Mode][]CorpusResult{}
	for _, mode := range bothModes {
		rs, err := AnalyzeUnstrAll(mtpa.Options{Mode: mode}, 0)
		if err != nil {
			t.Fatal(err)
		}
		results[mode] = rs
	}
	mkRow := func(r CorpusResult) row {
		fi := flowinsens.Analyze(r.Prog.IR)
		fp := 0
		if r.Res.FastPath {
			fp = 1
		}
		return row{
			fastPath: fp,
			cEdges:   r.Res.MainOut.C.Len(), eEdges: r.Res.MainOut.E.Len(),
			contexts: r.Res.ContextsTotal(), rounds: r.Res.Rounds,
			fiEdges: fi.Graph.Len(), fiIters: fi.Iterations,
		}
	}

	if os.Getenv("MTPA_WRITE_GOLDEN_UNSTR") != "" {
		var b strings.Builder
		b.WriteString("# name mode fastpath cEdges eEdges contexts rounds fiEdges fiIters\n")
		for _, mode := range bothModes {
			for _, r := range results[mode] {
				if r.Err != nil {
					t.Fatalf("%v", r.Err)
				}
				g := mkRow(r)
				fmt.Fprintf(&b, "%s %s %d %d %d %d %d %d %d\n",
					r.Name, mode, g.fastPath, g.cEdges, g.eEdges, g.contexts, g.rounds, g.fiEdges, g.fiIters)
			}
		}
		if err := os.WriteFile("testdata/golden_unstr.tsv", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("wrote testdata/golden_unstr.tsv")
		return
	}

	golden := map[string]row{}
	f, err := os.Open("testdata/golden_unstr.tsv")
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
		if _, err := fmt.Sscanf(line, "%s %s %d %d %d %d %d %d %d",
			&name, &mode, &r.fastPath, &r.cEdges, &r.eEdges, &r.contexts, &r.rounds, &r.fiEdges, &r.fiIters); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		golden[name+"/"+mode] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 16 {
		t.Fatalf("golden file has %d rows, want 16", len(golden))
	}

	for _, mode := range bothModes {
		for _, r := range results[mode] {
			if r.Err != nil {
				t.Fatalf("%v", r.Err)
			}
			want, ok := golden[r.Name+"/"+mode.String()]
			if !ok {
				t.Errorf("%s %v: no golden row", r.Name, mode)
				continue
			}
			if got := mkRow(r); got != want {
				t.Errorf("%s %v: got %+v, want %+v", r.Name, mode, got, want)
			}
			checkOneSolvePerRound(t, r, mode)
		}
	}
}

// TestUnstrSweepBitIdentical runs the unstructured partition with the
// call memo on and off and requires bit-identical fingerprints: the
// normalized region form must not open any memo sensitivity.
func TestUnstrSweepBitIdentical(t *testing.T) {
	for _, mode := range bothModes {
		var base []CorpusResult
		for _, nomemo := range []bool{false, true} {
			rs, err := AnalyzeUnstrAll(mtpa.Options{Mode: mode, DisableCallMemo: nomemo}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				if r.Err != nil {
					t.Fatalf("%s %v nomemo=%v: %v", r.Name, mode, nomemo, r.Err)
				}
				if base == nil {
					continue
				}
				if got, want := r.Res.Fingerprint(), base[i].Res.Fingerprint(); got != want {
					t.Errorf("%s %v nomemo=%v: fingerprint diverged\ngot:  %s\nbase: %s",
						r.Name, mode, nomemo, got, want)
				}
			}
			if base == nil {
				base = rs
			}
		}
	}
}

// TestUnstrFastPathIneligible pins the partition's eligibility: every
// unstructured program reaches a thread_create (or par), so the
// sequential fast path must never fire on it.
func TestUnstrFastPathIneligible(t *testing.T) {
	progs, err := UnstrPrograms()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 8 {
		t.Fatalf("unstructured partition has %d programs, want 8", len(progs))
	}
	for _, p := range progs {
		prog, err := mtpa.Compile(p.Name+".clk", p.Source)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		if prog.FastPathEligible() {
			t.Errorf("%s: unstructured program unexpectedly fast-path eligible", p.Name)
		}
	}
}

// unstrRunnable lists the partition's expected interpreter exit codes
// (-1 = any value).
var unstrRunnable = []struct {
	name string
	want int
}{
	{"tcount", 50},
	{"tlist", 21},
	{"tdetach", 0},
	{"thand", 45},
	{"tbank", 100},
	{"tpipe", 42},
	{"tmix", 17},
	{"tshare", 99},
}

// TestUnstrDynamicSoundness is the interp-vs-analysis differential over
// the unstructured partition: under several schedules, every dynamic
// pointer fact observed in globally named memory — including stores by
// detached threads that outlive main — must be covered by the
// multithreaded analysis result, and the deterministic programs must
// compute their expected values.
func TestUnstrDynamicSoundness(t *testing.T) {
	for _, rc := range unstrRunnable {
		rc := rc
		t.Run(rc.name, func(t *testing.T) {
			t.Parallel()
			prog, err := UnstrCompile(rc.name)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res, err := prog.Analyze(mtpa.Options{Mode: mtpa.Multithreaded})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			var static []interp.EdgePair
			for _, g := range []*ptgraph.Graph{res.MainOut.C, res.MainOut.E} {
				for _, e := range g.Edges() {
					static = append(static, interp.EdgePair{Src: e.Src, Dst: e.Dst})
				}
			}
			for seed := int64(0); seed < 5; seed++ {
				m := interp.New(prog.IR, io.Discard, seed)
				m.MaxSteps = 1 << 22
				code, err := m.Run()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rc.want >= 0 && code != rc.want {
					t.Errorf("seed %d: exit code = %d, want %d", seed, code, rc.want)
				}
				for f := range m.Facts {
					if !interp.CoveredEdges(prog.Table(), static, f) {
						t.Errorf("seed %d: dynamic fact %s not covered by the analysis", seed, f)
					}
				}
			}
		})
	}
}
