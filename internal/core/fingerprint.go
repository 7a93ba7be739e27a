// Result fingerprinting for the warm ≡ cold differential tests: a hash
// over everything the analysis promises its clients — the points-to
// graphs at main's exit, the warning set, the per-access precision
// measurements and the parallel-construct convergence data — while
// excluding run-shape artifacts that legitimately differ between a cold
// run and a summary-seeded warm run (round counts, context ids, cache
// and memo counters, solver step counts).

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"mtpa/internal/locset"
	"mtpa/internal/ptgraph"
)

// Fingerprint returns a hex digest of the run's observable outcome. Two
// runs over the same source with the same options produce equal
// fingerprints exactly when they agree on the exit graphs, warnings,
// access measurements and par convergence. Location sets are rendered by
// name, and context ids are erased by aggregating per-access and per-node
// measurements into sorted multisets, so the digest is invariant under
// the id relabelings a warm run introduces. Residual ghost location sets
// (those ExpandGhosts cannot map back to actual blocks) are anonymised to
// their ⟨offset, stride, pointer⟩ shape: ghost pool indices depend on
// context creation order, which is a run-shape artifact.
//
// A result never changes once analysis returns, so the digest is derived
// on the first call and memoised: every later call, from any goroutine,
// reads the stored value.
func (r *Result) Fingerprint() string {
	fp, _ := r.FingerprintDerived()
	return fp
}

// FingerprintDerived is Fingerprint that also reports whether this call
// derived the digest (true) or read the memo (false), so a serving layer
// can count its memo hits.
func (r *Result) FingerprintDerived() (fp string, derived bool) {
	r.fpOnce.Do(func() {
		r.fp = r.fingerprint()
		derived = true
	})
	return r.fp, derived
}

func (r *Result) fingerprint() string {
	h := sha256.New()
	tab := r.Table

	writeGraph := func(tag string, g *ptgraph.Graph) {
		var edges []string
		g.ForEachOrdered(func(src locset.ID, dsts ptgraph.Set) {
			for _, d := range dsts.IDs() {
				edges = append(edges, tab.String(src)+"->"+tab.String(d))
			}
		})
		sort.Strings(edges)
		fmt.Fprintf(h, "%s %d\n", tag, len(edges))
		for _, e := range edges {
			fmt.Fprintln(h, e)
		}
	}
	writeGraph("mainC", r.MainOut.C)
	writeGraph("mainE", r.MainOut.E)

	warns := make([]string, 0, len(r.Warnings))
	seen := map[string]bool{}
	for _, w := range r.Warnings {
		if !seen[w] {
			seen[w] = true
			warns = append(warns, w)
		}
	}
	sort.Strings(warns)
	fmt.Fprintf(h, "warnings %d\n", len(warns))
	for _, w := range warns {
		fmt.Fprintln(h, w)
	}

	// Per-access multisets over contexts: each sample renders as its
	// location-set count, uninitialised flag and ghost-expanded names.
	byAcc := map[int][]string{}
	for _, s := range r.Metrics.AccessSamples() {
		n, uninit := s.Count()
		var names []string
		for _, id := range r.ExpandGhosts(s) {
			ls := tab.Get(id)
			if ls.Block.Kind == locset.KindGhost {
				names = append(names, fmt.Sprintf("γ|%d|%d|%t", ls.Offset, ls.Stride, ls.Pointer))
			} else {
				names = append(names, tab.String(id))
			}
		}
		sort.Strings(names)
		byAcc[s.AccID] = append(byAcc[s.AccID], fmt.Sprintf("%d|%t|%v", n, uninit, names))
	}
	accIDs := make([]int, 0, len(byAcc))
	for id := range byAcc {
		accIDs = append(accIDs, id)
	}
	sort.Ints(accIDs)
	fmt.Fprintf(h, "accesses %d\n", len(accIDs))
	for _, id := range accIDs {
		rows := byAcc[id]
		sort.Strings(rows)
		fmt.Fprintf(h, "acc %d %v\n", id, rows)
	}

	// Per-construct multisets of convergence measurements.
	byPar := map[string][]string{}
	for _, p := range r.Metrics.ParSamples() {
		k := fmt.Sprintf("%s|%d", p.FnName, p.NodeID)
		byPar[k] = append(byPar[k], fmt.Sprintf("%d/%d", p.Iterations, p.Threads))
	}
	parKeys := make([]string, 0, len(byPar))
	for k := range byPar {
		parKeys = append(parKeys, k)
	}
	sort.Strings(parKeys)
	fmt.Fprintf(h, "pars %d\n", len(parKeys))
	for _, k := range parKeys {
		rows := byPar[k]
		sort.Strings(rows)
		fmt.Fprintf(h, "par %s %v\n", k, rows)
	}

	fmt.Fprintf(h, "degraded %d\n", len(r.Degraded))
	return hex.EncodeToString(h.Sum(nil))
}
