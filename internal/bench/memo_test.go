package bench

import (
	"fmt"
	"testing"

	"mtpa"
)

// TestCallMemoBitIdentical pins the call-site memo's contract over the
// whole corpus: a memo hit may only stand in for work whose every side
// effect would have been a no-op, so running with the memo off must
// reproduce the exact same graphs, contexts, rounds, samples and
// warnings. The hit/miss counters themselves are NOT compared — with the
// memo off they are zero by construction.
func TestCallMemoBitIdentical(t *testing.T) {
	on, err := AnalyzeAll(mtpa.Options{Mode: mtpa.Multithreaded}, 0)
	if err != nil {
		t.Fatal(err)
	}
	off, err := AnalyzeAll(mtpa.Options{Mode: mtpa.Multithreaded, DisableCallMemo: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range on {
		s := off[i]
		if c.Err != nil || s.Err != nil {
			t.Fatalf("%s: memo-on err %v, memo-off err %v", c.Name, c.Err, s.Err)
		}
		if !c.Res.MainOut.C.Equal(s.Res.MainOut.C) || !c.Res.MainOut.E.Equal(s.Res.MainOut.E) {
			t.Errorf("%s: memo on/off produced different graphs", c.Name)
		}
		if c.Res.ContextsTotal() != s.Res.ContextsTotal() ||
			c.Res.Rounds != s.Res.Rounds ||
			c.Res.ProcAnalyses != s.Res.ProcAnalyses {
			t.Errorf("%s: contexts/rounds/analyses diverged: %d/%d/%d vs %d/%d/%d", c.Name,
				c.Res.ContextsTotal(), c.Res.Rounds, c.Res.ProcAnalyses,
				s.Res.ContextsTotal(), s.Res.Rounds, s.Res.ProcAnalyses)
		}
		if fmt.Sprint(c.Res.Warnings) != fmt.Sprint(s.Res.Warnings) {
			t.Errorf("%s: warnings diverged:\n%v\n%v", c.Name, c.Res.Warnings, s.Res.Warnings)
		}
		ca, sa := c.Res.Metrics.AccessSamples(), s.Res.Metrics.AccessSamples()
		if len(ca) != len(sa) {
			t.Fatalf("%s: %d vs %d access samples", c.Name, len(ca), len(sa))
		}
		for j := range ca {
			if ca[j].AccID != sa[j].AccID || ca[j].CtxID != sa[j].CtxID ||
				fmt.Sprint(ca[j].Locs) != fmt.Sprint(sa[j].Locs) {
				t.Errorf("%s: access sample %d diverged: %+v vs %+v", c.Name, j, ca[j], sa[j])
			}
		}
		cp, sp := c.Res.Metrics.ParSamples(), s.Res.Metrics.ParSamples()
		if len(cp) != len(sp) {
			t.Fatalf("%s: %d vs %d par samples", c.Name, len(cp), len(sp))
		}
		for j := range cp {
			if *cp[j] != *sp[j] {
				t.Errorf("%s: par sample %d diverged: %+v vs %+v", c.Name, j, cp[j], sp[j])
			}
		}
	}
}
