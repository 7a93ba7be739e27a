package bench

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mtpa"
	"mtpa/internal/flowinsens"
)

// TestGoldenSeqCorpus locks the analysis results on the sequential
// partition to golden numbers, exactly like TestGoldenCorpus does for
// the 18 paper programs. Because the fast path is on by default, these
// rows pin the fast engine's output; TestSeqFastPathBitIdentical pins
// it to the full engine, so together the two tests make any fast-path
// result drift fail twice. Regenerate after an intended change with:
//
//	MTPA_WRITE_GOLDEN_SEQ=1 go test ./internal/bench/ -run TestGoldenSeqCorpus
func TestGoldenSeqCorpus(t *testing.T) {
	type row struct {
		fastPath                                           int
		cEdges, eEdges, contexts, rounds, fiEdges, fiIters int
	}
	results := map[mtpa.Mode][]CorpusResult{}
	for _, mode := range bothModes {
		rs, err := AnalyzeSeqAll(mtpa.Options{Mode: mode}, 0)
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

	if os.Getenv("MTPA_WRITE_GOLDEN_SEQ") != "" {
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
		if err := os.WriteFile("testdata/golden_seq.tsv", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("wrote testdata/golden_seq.tsv")
		return
	}

	golden := map[string]row{}
	f, err := os.Open("testdata/golden_seq.tsv")
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
	if len(golden) != 14 {
		t.Fatalf("golden file has %d rows, want 14", len(golden))
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

// TestSeqFastPathBitIdentical is the fast path's core obligation: on
// every sequential-partition program the interference-free engine mode
// must reproduce the full engine — same fingerprint (points-to graphs,
// warnings, access and par samples, degradations), same warnings, and
// on this corpus the same round and context counts.
func TestSeqFastPathBitIdentical(t *testing.T) {
	for _, mode := range bothModes {
		fast, err := AnalyzeSeqAll(mtpa.Options{Mode: mode}, 0)
		if err != nil {
			t.Fatal(err)
		}
		full, err := AnalyzeSeqAll(mtpa.Options{Mode: mode, DisableSeqFastPath: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range fast {
			if fr.Err != nil {
				t.Fatalf("%s %v: %v", fr.Name, mode, fr.Err)
			}
			sr := full[i]
			if sr.Err != nil {
				t.Fatalf("%s %v (full): %v", sr.Name, mode, sr.Err)
			}
			if !fr.Res.FastPath {
				t.Errorf("%s %v: fast path did not fire", fr.Name, mode)
			}
			if sr.Res.FastPath {
				t.Errorf("%s %v: fast path fired despite DisableSeqFastPath", sr.Name, mode)
			}
			if got, want := fr.Res.Fingerprint(), sr.Res.Fingerprint(); got != want {
				t.Errorf("%s %v: fingerprint diverged\nfast: %s\nfull: %s", fr.Name, mode, got, want)
			}
			if !reflect.DeepEqual(fr.Res.Warnings, sr.Res.Warnings) {
				t.Errorf("%s %v: warnings diverged", fr.Name, mode)
			}
			if fr.Res.Rounds != sr.Res.Rounds || fr.Res.ContextsTotal() != sr.Res.ContextsTotal() {
				t.Errorf("%s %v: rounds/contexts diverged: fast %d/%d full %d/%d",
					fr.Name, mode, fr.Res.Rounds, fr.Res.ContextsTotal(), sr.Res.Rounds, sr.Res.ContextsTotal())
			}
		}
	}
}

// TestSeqFastPathEligibility pins the eligibility partition: every
// sequential-partition program is fast-path eligible (including deadpar,
// whose spawns are unreachable), and none of the 18 paper programs is —
// they all reach a spawn.
func TestSeqFastPathEligibility(t *testing.T) {
	seq, err := SeqPrograms()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 7 {
		t.Fatalf("sequential partition has %d programs, want 7", len(seq))
	}
	for _, p := range seq {
		prog, err := mtpa.Compile(p.Name+".clk", p.Source)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		if !prog.FastPathEligible() {
			t.Errorf("%s: expected fast-path eligible", p.Name)
		}
	}
	par, err := Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range par {
		prog, err := mtpa.Compile(p.Name+".clk", p.Source)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		if prog.FastPathEligible() {
			t.Errorf("%s: paper program unexpectedly fast-path eligible", p.Name)
		}
	}
}

// TestParallelPartitionUnaffected is the tripwire the CI job runs: on
// the 18 paper programs (all of which reach a spawn) the fast-path
// machinery must be completely inert — identical fingerprints with the
// option on (default) and force-disabled.
func TestParallelPartitionUnaffected(t *testing.T) {
	auto, err := AnalyzeAll(mtpa.Options{Mode: mtpa.Multithreaded}, 0)
	if err != nil {
		t.Fatal(err)
	}
	off, err := AnalyzeAll(mtpa.Options{Mode: mtpa.Multithreaded, DisableSeqFastPath: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range auto {
		if a.Err != nil {
			t.Fatalf("%s: %v", a.Name, a.Err)
		}
		o := off[i]
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Name, o.Err)
		}
		if a.Res.FastPath {
			t.Errorf("%s: fast path fired on a parallel program", a.Name)
		}
		if got, want := a.Res.Fingerprint(), o.Res.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint diverged with fast path enabled\nauto: %s\noff:  %s", a.Name, got, want)
		}
	}
}
