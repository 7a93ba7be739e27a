// Partial summary eviction: a bounded store may drop any single summary
// while keeping the summaries of its callers, so a seeded context can
// name a callee key that no longer resolves. The engine must then solve
// the context for real instead of skipping the callee, or the missing
// callee's measurements silently vanish from the warm result.

package session_test

import (
	"context"
	"sort"
	"testing"

	"mtpa"
	"mtpa/internal/bench"
	"mtpa/internal/core"
)

// hidingSeeder serves one cold run's exported summaries with one key
// hidden: the engine's view of a store that evicted exactly that summary.
type hidingSeeder struct {
	sums   map[string]*core.Summary
	hidden string
}

func (s *hidingSeeder) Lookup(fn, key string) *core.Summary {
	if sum := s.LookupKey(key); sum != nil && sum.Fn == fn {
		return sum
	}
	return nil
}

func (s *hidingSeeder) LookupKey(key string) *core.Summary {
	if key == s.hidden {
		return nil
	}
	return s.sums[key]
}

// TestSummaryEvictionWarmEqualsCold hides one summary key at a time from
// a cold run's harvest and requires every warm run over the remaining
// summaries to fingerprint-match the cold run, over every corpus program.
func TestSummaryEvictionWarmEqualsCold(t *testing.T) {
	var progs []bench.Program
	for _, load := range []func() ([]bench.Program, error){bench.Programs, bench.SeqPrograms, bench.UnstrPrograms} {
		ps, err := load()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, ps...)
	}
	opts := core.Options{Mode: core.Multithreaded}
	analyze := func(p bench.Program, seeder core.Seeder) (*core.Result, []*core.Summary) {
		t.Helper()
		prog, err := mtpa.Compile(p.Name+".clk", p.Source)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		res, harvest, err := core.AnalyzeWithSeeder(context.Background(), prog.IR, opts, seeder)
		if err != nil {
			t.Fatalf("%s: analyze: %v", p.Name, err)
		}
		return res, harvest
	}
	drops, mismatches := 0, 0
	for _, p := range progs {
		// An empty seeder makes the cold run keep the per-context records
		// the summary harvest needs, without seeding anything.
		cold, harvest := analyze(p, &hidingSeeder{})
		want := cold.Fingerprint()
		sums := map[string]*core.Summary{}
		for _, s := range harvest {
			sums[s.Key] = s
		}
		if len(sums) == 0 {
			t.Fatalf("%s: cold run exported no summaries", p.Name)
		}
		keys := make([]string, 0, len(sums))
		for k := range sums {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, hidden := range append([]string{""}, keys...) {
			warm, _ := analyze(p, &hidingSeeder{sums: sums, hidden: hidden})
			what := "no summary hidden"
			if hidden != "" {
				drops++
				what = "hiding " + sums[hidden].Fn + " summary " + hidden
			}
			if got := warm.Fingerprint(); got != want {
				mismatches++
				t.Errorf("%s: %s: warm fingerprint %s != cold %s", p.Name, what, got, want)
			}
		}
	}
	t.Logf("%d single-summary evictions, %d warm/cold mismatches", drops, mismatches)
}
