package bench

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"mtpa"
)

// TestGoldenFingerprints locks the full observable outcome of every
// corpus program — the paper, sequential and unstructured partitions, in
// both modes — to its Fingerprint: the exit graphs, the warning set, the
// per-access location sets behind Tables 2 and 4 and Figures 8 and 9,
// and the par convergence data behind Table 3. The count goldens
// (golden_{corpus,seq,unstr}.tsv) cannot see the access measurements;
// this one can. Regenerate after an intended change with:
//
//	MTPA_WRITE_GOLDEN_FINGERPRINT=1 go test ./internal/bench/ -run TestGoldenFingerprints
func TestGoldenFingerprints(t *testing.T) {
	sweeps := []func(mtpa.Options, int) ([]CorpusResult, error){AnalyzeAll, AnalyzeSeqAll, AnalyzeUnstrAll}
	var rows []string
	for _, sweep := range sweeps {
		for _, mode := range bothModes {
			rs, err := sweep(mtpa.Options{Mode: mode}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				if r.Err != nil {
					t.Fatalf("%s %v: %v", r.Name, mode, r.Err)
				}
				rows = append(rows, fmt.Sprintf("%s %s %s", r.Name, mode, r.Res.Fingerprint()))
			}
		}
	}

	const path = "testdata/golden_fingerprint.tsv"
	if os.Getenv("MTPA_WRITE_GOLDEN_FINGERPRINT") != "" {
		out := "# name mode fingerprint\n" + strings.Join(rows, "\n") + "\n"
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("wrote " + path)
		return
	}

	golden := map[string]string{}
	f, err := os.Open(path)
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
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("bad golden line %q", line)
		}
		golden[fields[0]+"/"+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 66 || len(rows) != 66 {
		t.Fatalf("golden file has %d rows and the corpus %d, want 66", len(golden), len(rows))
	}
	for _, row := range rows {
		fields := strings.Fields(row)
		want, ok := golden[fields[0]+"/"+fields[1]]
		if !ok {
			t.Errorf("%s %s: no golden row", fields[0], fields[1])
			continue
		}
		if fields[2] != want {
			t.Errorf("%s %s: fingerprint %s, want %s", fields[0], fields[1], fields[2], want)
		}
	}
}
