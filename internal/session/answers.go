// Served answers: the forms in which a published result reaches clients
// of a serving layer (the mtpad daemon) — its fingerprint, the rendered
// points-to graph at main's exit and the race report. A published result
// never changes, so each form is derived at most once per result, on
// first demand, and then served from the memo to every later reader:
// repeated queries on one token, whole-file cache hits and every tenant
// sharing the store entry.
//
// Each kind fills under its own sync.Once, so the first points-to read
// never waits behind race detection (or the other way round), and a kind
// nobody asks for is never derived. Besides a pointer to the result, the
// memo holds strings only; like the result, it keeps no engine state
// alive.

package session

import (
	"sync"

	"mtpa/internal/core"
	"mtpa/internal/race"
)

// Answers derives and memoises the served forms of one published result.
// It is safe for concurrent use. Every accessor also reports whether
// this call derived the answer (true) or read the memo (false).
type Answers struct {
	res *core.Result

	graph memo[string]
	races memo[[]string]
}

// memo is one lazily derived value.
type memo[T any] struct {
	once sync.Once
	v    T
}

func (m *memo[T]) get(derive func() T) (v T, derived bool) {
	m.once.Do(func() {
		m.v = derive()
		derived = true
	})
	return m.v, derived
}

// Fingerprint returns the result's fingerprint (memoised by the result
// itself; see core.Result.Fingerprint).
func (a *Answers) Fingerprint() (fp string, derived bool) {
	return a.res.FingerprintDerived()
}

// Graph returns the points-to graph at main's exit, rendered with
// compiler temporaries hidden (as Graph.FormatFiltered with the
// program's temp filter).
func (a *Answers) Graph() (graph string, derived bool) {
	return a.graph.get(func() string {
		return a.res.MainOut.C.FormatFiltered(a.res.Table, a.res.Table.IsTemp)
	})
}

// Races returns the race report: one rendered race per detected pair,
// in the detector's order. The slice is shared; do not modify it.
func (a *Answers) Races() (races []string, derived bool) {
	return a.races.get(func() []string {
		var out []string
		for _, r := range race.New(a.res.Prog, a.res).Detect() {
			out = append(out, r.String())
		}
		return out
	})
}
