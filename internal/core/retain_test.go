package core

import (
	"context"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"mtpa/internal/ir"
	"mtpa/internal/parser"
	"mtpa/internal/sem"
)

// mapSeeder serves the summaries of an earlier run by canonical key.
type mapSeeder map[string]*Summary

func (m mapSeeder) Lookup(fn, key string) *Summary {
	if s := m[key]; s != nil && s.Fn == fn {
		return s
	}
	return nil
}

func (m mapSeeder) LookupKey(key string) *Summary { return m[key] }

func compileCorpus(t *testing.T, name string) *ir.Program {
	t.Helper()
	src, err := os.ReadFile("../bench/corpus/" + name + ".clk")
	if err != nil {
		t.Fatal(err)
	}
	astProg, err := parser.Parse(name+".clk", string(src))
	if err != nil {
		t.Fatal(err)
	}
	info, diags := sem.Check(astProg)
	if hard := diags.HardErrors(); len(hard) > 0 {
		t.Fatal(hard)
	}
	prog, err := ir.Lower(info)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestResultDoesNotRetainEngine pins that a Result keeps only its
// answers: once analyze returns, the engine state behind it (contexts,
// call memo, flow graphs, canonizer) is garbage, even on a seeded run.
func TestResultDoesNotRetainEngine(t *testing.T) {
	opts := Options{Mode: Multithreaded}
	prog := compileCorpus(t, "barnes")
	cold, harvest, err := AnalyzeWithSeeder(context.Background(), prog, opts, mapSeeder{})
	if err != nil {
		t.Fatal(err)
	}
	seeder := mapSeeder{}
	for _, s := range harvest {
		seeder[s.Key] = s
	}
	// A fresh compile: the warm run resolves the summaries into its own
	// table, as a session update does.
	prog = compileCorpus(t, "barnes")

	var collected atomic.Bool
	testHookAnalysis = func(a *Analysis) {
		runtime.SetFinalizer(a, func(*Analysis) { collected.Store(true) })
	}
	res, _, err := AnalyzeWithSeeder(context.Background(), prog, opts, seeder)
	testHookAnalysis = nil
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedStats().Hits == 0 {
		t.Fatal("warm run seeded nothing")
	}
	for i := 0; i < 20 && !collected.Load(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if !collected.Load() {
		t.Error("the engine state outlived analyze: a Result field still reaches it")
	}
	if res.Fingerprint() != cold.Fingerprint() {
		t.Error("warm fingerprint differs from cold")
	}
}
