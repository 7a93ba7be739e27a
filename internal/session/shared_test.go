// Cross-session concurrency: the artifact store is shared between every
// tenant of the analysis daemon, so its mutation paths — artifact
// insert, eviction, the naming-environment structures cached inside it,
// and the in-place symbol binding sem.Check performs on cached
// procedure ASTs — must hold up under concurrent access from multiple
// sessions. These tests are -race hammers: several sessions (and
// several goroutines within one session) stream edits through one
// store, and every warm result must stay bit-identical to a cold
// single-tenant run of the same source.

package session_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mtpa"
	"mtpa/internal/bench"
	"mtpa/internal/race"
)

// TestSharedStoreTwoSessionsRace streams interleaved edits of one file
// through two sessions sharing one store, from concurrent goroutines.
// Every refined result must match the cold fingerprint of its exact
// source, and the second session must observably reuse artifacts the
// first one created.
func TestSharedStoreTwoSessionsRace(t *testing.T) {
	p, err := bench.Load("fib")
	if err != nil {
		t.Fatal(err)
	}
	const file = "fib.clk"
	opts := mtpa.Options{Mode: mtpa.Multithreaded}

	edits := procEdits(t, file, p.Source)
	variants := append([]string{p.Source}, edits...)
	cold := make(map[string]string, len(variants))
	for _, src := range variants {
		cold[src] = coldFingerprint(t, file, src, opts)
	}

	store := mtpa.NewSharedStore(0)
	sessions := []*mtpa.Session{
		mtpa.NewSessionWithStore(opts, store),
		mtpa.NewSessionWithStore(opts, store),
	}

	const passes = 3
	var wg sync.WaitGroup
	for si, sess := range sessions {
		wg.Add(1)
		go func(si int, sess *mtpa.Session) {
			defer wg.Done()
			for pass := 0; pass < passes; pass++ {
				for vi, src := range variants {
					up, err := sess.Update(file, src)
					if err != nil {
						t.Errorf("session %d pass %d variant %d: %v", si, pass, vi, err)
						return
					}
					if got := up.Result.Fingerprint(); got != cold[src] {
						t.Errorf("session %d pass %d variant %d: fingerprint %s, want cold %s",
							si, pass, vi, got, cold[src])
						return
					}
				}
			}
		}(si, sess)
	}
	wg.Wait()

	st := store.Stats()
	if st["res"].Hits == 0 {
		t.Error("no whole-file result reuse across sessions sharing one store")
	}
	if st["ast"].Hits == 0 {
		t.Error("no procedure-AST reuse across sessions sharing one store")
	}
}

// TestSharedStoreManySessionsDistinctFiles puts each session on its own
// file plus one common file, so inserts, evictions-free growth and
// cross-tenant dedupe all happen at once.
func TestSharedStoreManySessionsDistinctFiles(t *testing.T) {
	common, err := bench.Load("fib")
	if err != nil {
		t.Fatal(err)
	}
	own, err := bench.Load("notemp")
	if err != nil {
		t.Fatal(err)
	}
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	coldCommon := coldFingerprint(t, "common.clk", common.Source, opts)

	store := mtpa.NewSharedStore(0)
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := mtpa.NewSessionWithStore(opts, store)
			ownFile := fmt.Sprintf("own%d.clk", i)
			ownCold := coldFingerprint(t, ownFile, own.Source, opts)
			for pass := 0; pass < 2; pass++ {
				upc, err := sess.Update("common.clk", common.Source)
				if err != nil {
					t.Errorf("session %d: common: %v", i, err)
					return
				}
				if got := upc.Result.Fingerprint(); got != coldCommon {
					t.Errorf("session %d: common fingerprint %s, want %s", i, got, coldCommon)
					return
				}
				upo, err := sess.Update(ownFile, own.Source)
				if err != nil {
					t.Errorf("session %d: own: %v", i, err)
					return
				}
				if got := upo.Result.Fingerprint(); got != ownCold {
					t.Errorf("session %d: own fingerprint %s, want %s", i, got, ownCold)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestSessionConcurrentUpdateAndQuery exercises the documented "Sessions
// are safe for concurrent use" contract on a single session: parallel
// goroutines update (distinct variants, identical re-submissions) while
// others read results and statistics, under -race.
func TestSessionConcurrentUpdateAndQuery(t *testing.T) {
	p, err := bench.Load("fib")
	if err != nil {
		t.Fatal(err)
	}
	const file = "fib.clk"
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	edits := procEdits(t, file, p.Source)
	variants := append([]string{p.Source}, edits...)
	cold := make(map[string]string, len(variants))
	for _, src := range variants {
		cold[src] = coldFingerprint(t, file, src, opts)
	}

	sess := mtpa.NewSession(opts)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				src := variants[(g+pass)%len(variants)]
				up, err := sess.Update(file, src)
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				if got := up.Result.Fingerprint(); got != cold[src] {
					t.Errorf("worker %d: fingerprint %s, want %s", g, got, cold[src])
					return
				}
				// Query the shared result surface while others update.
				tab := up.Program.Table()
				_ = up.Result.MainOut.C.FormatFiltered(tab, up.Program.TempFilter())
				_ = up.Result.MainOut.C.Clone()
				_ = sess.Stats()
			}
		}(g)
	}
	wg.Wait()
}

// TestSharedResultConcurrentQueries answers queries on published results
// from many goroutines at once, as two tenants asking about the same file
// (or two polls of one refinement token) do. Under -race it pins that
// queries never write a result's location-set table. Two results of ck
// are queried: the one a second tenant gets from the shared store, and a
// one-shot Compile + Analyze result. The one-shot result is the exposed
// one: ck's ghost expansion names two location sets that nothing before
// it interned, while a session's tier-0 pass happens to intern them before
// the result is published.
func TestSharedResultConcurrentQueries(t *testing.T) {
	p, err := bench.Load("ck")
	if err != nil {
		t.Fatal(err)
	}
	const file = "ck.clk"
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	cold := coldFingerprint(t, file, p.Source, opts)
	analyzeCold := func() (*mtpa.Program, *mtpa.Result) {
		prog, err := mtpa.Compile(file, p.Source)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Analyze(opts)
		if err != nil {
			t.Fatal(err)
		}
		return prog, res
	}
	refProg, refRes := analyzeCold()
	wantRaces := len(race.New(refProg.IR, refRes).Detect())

	store := mtpa.NewSharedStore(0)
	tu, err := mtpa.NewSessionWithStore(opts, store).UpdateTiered(context.Background(), file, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tu.Refined(); err != nil {
		t.Fatal(err)
	}
	up, err := mtpa.NewSessionWithStore(opts, store).Update(file, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Stats.ResultCached {
		t.Fatal("second tenant missed the shared whole-file result")
	}

	type target struct {
		prog *mtpa.Program
		res  *mtpa.Result
	}
	// A table write a query makes happens on the result's first query
	// only, and the race detector keeps a short access history, so one
	// trial catches it about a third of the time. Each trial takes a fresh
	// one-shot result that no query has touched yet.
	for trial := 0; trial < 8 && !t.Failed(); trial++ {
		oneShotProg, oneShotRes := analyzeCold()
		targets := []target{{up.Program, up.Result}, {oneShotProg, oneShotRes}}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < len(targets); i++ {
					tg := targets[(g+i)%len(targets)]
					if got := len(race.New(tg.prog.IR, tg.res).Detect()); got != wantRaces {
						t.Errorf("goroutine %d: %d races, want %d", g, got, wantRaces)
						return
					}
					if got := tg.res.Fingerprint(); got != cold {
						t.Errorf("goroutine %d: fingerprint %s, want cold %s", g, got, cold)
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}
