// The differential shadow seam. With shadow mode enabled, every Graph
// created by New carries a mapref.Graph — the original mutable, map-based
// representation — and every mutating operation is mirrored into it and
// cross-checked. Divergences between the hash-consed copy-on-write
// representation and the reference are *recorded*, not panicked: the
// corpus differential test replays the entire analysis of all 18 benchmark
// programs with shadow mode on and then reports every recorded divergence
// (operation, source, edge delta) through its failure message, so a
// representation bug is debuggable from CI logs instead of aborting the
// replay at the first mismatch.

package ptgraph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mtpa/internal/locset"
	"mtpa/internal/ptgraph/mapref"
)

var shadowMode atomic.Bool

// SetShadowMode switches differential shadow verification on or off for
// graphs created afterwards. It is a test seam: enabling it makes every
// graph operation mirror into the original map-based representation and
// record any divergence (see Divergences). Not for production use.
func SetShadowMode(on bool) { shadowMode.Store(on) }

// ShadowMode reports whether shadow verification is enabled.
func ShadowMode() bool { return shadowMode.Load() }

func shadowEnabled() bool { return shadowMode.Load() }

// Divergence is one recorded mismatch between the hash-consed graph and
// the map-based reference representation.
type Divergence struct {
	Op     string    // the operation after which the mismatch was observed
	Src    locset.ID // the offending source (negative when not per-source)
	Detail string    // human-readable edge/count/hash delta
}

func (d Divergence) String() string {
	if d.Src >= 0 {
		return fmt.Sprintf("after %s: src %d: %s", d.Op, d.Src, d.Detail)
	}
	return fmt.Sprintf("after %s: %s", d.Op, d.Detail)
}

// maxDivergences bounds the recorded log: a systematic representation bug
// diverges on nearly every operation, and the first hundred reports
// already pinpoint it.
const maxDivergences = 100

var (
	divMu      sync.Mutex
	divLog     []Divergence
	divDropped int
)

// recordDivergence appends one divergence to the bounded package log.
// Concurrent analyses (AnalyzeAll runs programs side by side) may all
// record into the log, hence the mutex.
func recordDivergence(op string, src locset.ID, format string, args ...any) {
	divMu.Lock()
	defer divMu.Unlock()
	if len(divLog) >= maxDivergences {
		divDropped++
		return
	}
	divLog = append(divLog, Divergence{Op: op, Src: src, Detail: fmt.Sprintf(format, args...)})
}

// Divergences returns a copy of the divergences recorded since the last
// ResetDivergences, and how many further ones were dropped after the log
// filled up. Differential tests call it after a shadow-mode replay and
// fail with the returned diffs.
func Divergences() (recorded []Divergence, dropped int) {
	divMu.Lock()
	defer divMu.Unlock()
	return append([]Divergence(nil), divLog...), divDropped
}

// ResetDivergences clears the divergence log.
func ResetDivergences() {
	divMu.Lock()
	defer divMu.Unlock()
	divLog, divDropped = nil, 0
}

// checkSrc verifies that src's successor set matches the reference.
func (g *Graph) checkSrc(op string, src locset.ID) {
	got := g.succ[src].IDs()
	want := g.shadow.Succs(src).Sorted()
	if len(got) != len(want) {
		recordDivergence(op, src, "graph has %v, reference has %v", got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			recordDivergence(op, src, "graph has %v, reference has %v", got, want)
			return
		}
	}
}

func (g *Graph) checkCount(op string) {
	if g.count != g.shadow.Len() {
		recordDivergence(op, -1, "%d edges, reference has %d", g.count, g.shadow.Len())
	}
}

// VerifyShadow performs a full structural comparison against the reference
// representation (a no-op when the graph carries no shadow). Differential
// tests call it on result graphs; mutating operations already verify their
// touched sources eagerly.
func (g *Graph) VerifyShadow() {
	if g.shadow != nil {
		g.shadowCheck("VerifyShadow")
	}
}

// shadowCheck performs a full structural comparison against the reference,
// plus a from-scratch recomputation of the incremental hash.
func (g *Graph) shadowCheck(op string) {
	g.checkCount(op)
	if len(g.succ) != len(g.shadow.Sources()) {
		recordDivergence(op, -1, "%d sources, reference has %d", len(g.succ), len(g.shadow.Sources()))
	}
	var h uint64
	for src, dsts := range g.succ {
		g.checkSrc(op, src)
		h ^= contrib(src, dsts)
	}
	if h != g.hash {
		recordDivergence(op, -1, "incremental hash %x, recomputed %x", g.hash, h)
	}
}

func (g *Graph) shadowAdd(src, dst locset.ID) {
	if !g.shadow.Add(src, dst) {
		recordDivergence("Add", src, "Add(%d,%d) changed the graph but not the reference", src, dst)
	}
	g.checkSrc("Add", src)
	g.checkCount("Add")
}

func (g *Graph) shadowAddSet(src locset.ID, dsts Set) {
	for _, d := range dsts.IDs() {
		g.shadow.Add(src, d)
	}
	g.checkSrc("AddSet", src)
	g.checkCount("AddSet")
}

func (g *Graph) shadowReplace(src locset.ID, dsts Set) {
	g.shadow.Kill(mapref.NewSet(src))
	for _, d := range dsts.IDs() {
		g.shadow.Add(src, d)
	}
	g.checkSrc("ReplaceSucc", src)
	g.checkCount("ReplaceSucc")
}

func (g *Graph) shadowKillSrc(src locset.ID) {
	if !g.shadow.Kill(mapref.NewSet(src)) {
		recordDivergence("KillSrc", src, "KillSrc(%d) changed the graph but not the reference", src)
	}
	g.checkSrc("KillSrc", src)
	g.checkCount("KillSrc")
}

func (g *Graph) shadowKillEdges(src locset.ID, ks Set) {
	rm := mapref.New()
	for _, d := range ks.IDs() {
		rm.Add(src, d)
	}
	g.shadow.KillEdges(rm)
	g.checkSrc("KillEdges", src)
	g.checkCount("KillEdges")
}
