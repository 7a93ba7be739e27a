package bench

import (
	"testing"

	"mtpa"
	"mtpa/internal/race"
)

// TestQueriesLeaveTableUnchanged pins that answering queries never writes
// a result's location-set table: a published result is read by any
// number of goroutines at once (two tenants on one file, two polls of
// one token), so Fingerprint and race detection must be pure reads. Every
// location set they name, the ghost expansion of Table 4 included, was
// interned before the analysis returned.
func TestQueriesLeaveTableUnchanged(t *testing.T) {
	sweeps := []func(mtpa.Options, int) ([]CorpusResult, error){AnalyzeAll, AnalyzeSeqAll, AnalyzeUnstrAll}
	n := 0
	for _, sweep := range sweeps {
		rs, err := sweep(mtpa.Options{Mode: mtpa.Multithreaded}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Name, r.Err)
			}
			n++
			tab := r.Prog.Table()
			before := tab.NumLocSets()
			r.Res.Fingerprint()
			race.New(r.Prog.IR, r.Res).Detect()
			if after := tab.NumLocSets(); after != before {
				t.Errorf("%s: queries grew the location-set table from %d to %d", r.Name, before, after)
			}
		}
	}
	if n != 33 {
		t.Errorf("swept %d programs, want 33", n)
	}
}
