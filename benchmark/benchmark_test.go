package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtpa/internal/parser"
)

// TestInputsDeterministic: one seed yields byte-identical inputs, two
// seeds differ, for every workload.
func TestInputsDeterministic(t *testing.T) {
	progs, err := loadPrograms("..", paperCorpus, seqCorpus, unstrCorpus)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(workload string, seed int64) []byte {
		var b bytes.Buffer
		if err := genInputs(workload, progs, seed, 2*time.Second).encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for workload := range workloads {
		a, b, c := encode(workload, 7), encode(workload, 7), encode(workload, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", workload)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", workload)
		}
	}
}

// TestProcBraces: the edit generator's procedure scan finds exactly the
// procedure bodies the parser finds.
func TestProcBraces(t *testing.T) {
	progs, err := loadPrograms("..", paperCorpus, seqCorpus, unstrCorpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		ast, err := parser.Parse(p.file, p.src)
		if err != nil {
			t.Fatal(err)
		}
		bodies := 0
		for _, f := range ast.Funcs {
			if f.Body != nil {
				bodies++
			}
		}
		if len(p.braces) != bodies {
			t.Errorf("%s: scan found %d procedure bodies, parser %d", p.name, len(p.braces), bodies)
		}
	}
}

// TestSmoke runs every workload untraced and traced at toy size: each
// metric BENCHMARK.json declares for the mode is printed exactly once
// with its unit, the JSON line carries exactly those metrics, and no
// operation fails or mismatches.
func TestSmoke(t *testing.T) {
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mtpad := filepath.Join(dir, "mtpad")
	if out, err := exec.Command("go", "build", "-o", mtpad, "mtpa/cmd/mtpad").CombinedOutput(); err != nil {
		t.Fatalf("build mtpad: %v\n%s", err, out)
	}

	for _, workload := range []string{"oneshot-par", "oneshot-seq", "edit-stream", "mtpad-mixed"} {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: workload, seed: 3, window: 200 * time.Millisecond,
				trace: traced, traceFile: filepath.Join(dir, workload+".json"),
				root: "..", mtpad: mtpad, setupReps: 1, files: 3,
			}
			rep, err := workloads[workload](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", workload, traced, err)
			}
			var out bytes.Buffer
			rep.print(&out, io.Discard)
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
				if _, err := os.Stat(cfg.traceFile); err != nil {
					t.Errorf("%s: no trace file: %v", workload, err)
				}
			}
			checkPrinted(t, workload, out.String(), want)
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed, first: %v", workload, traced, rep.failed, rep.attempted, rep.problems[:min(1, len(rep.problems))])
			}
		}
	}
}

func checkPrinted(t *testing.T, workload, out string, want []struct{ Name, Unit string }) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s: JSON line has %d metrics, want %d", workload, len(last.Metrics), len(want))
	}
	printed := map[string][]string{} // name → units of every line naming it
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 4 {
			printed[f[0]] = append(printed[f[0]], f[2])
		}
	}
	for _, m := range want {
		if units := printed[m.Name]; len(units) != 1 || units[0] != m.Unit {
			t.Errorf("%s: metric %s printed with units %v, want once with %s", workload, m.Name, units, m.Unit)
		}
		if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: JSON metric %s = %+v, want unit %s", workload, m.Name, got, m.Unit)
		}
	}
}
