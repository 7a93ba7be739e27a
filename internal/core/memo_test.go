package core_test

import (
	"testing"

	"mtpa"
)

// memoSrc revisits calls with unchanged ⟨C, I⟩ inputs: the par fixed
// point needs a confirming iteration that re-solves both threads — and
// re-executes their calls — with exactly the inputs of the previous
// iteration. Those revisits should be served from the call-site memo.
const memoSrc = `
int x, y;
int *p;
void seta() { p = &x; }
void setb() { p = &y; }
int main() {
  par {
    { seta(); }
    { setb(); }
  }
  *p = 1;
  return 0;
}
`

// TestCallMemoHits pins down that revisiting a call with identical
// inputs hits the memo, that DisableCallMemo bypasses it entirely, and
// that the analysis result does not depend on the memo in any way.
func TestCallMemoHits(t *testing.T) {
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	_, res := analyze(t, memoSrc, opts)
	if res.Metrics.CallMemoHits == 0 {
		t.Errorf("expected call-memo hits on fixpoint revisits, got 0 (misses=%d)",
			res.Metrics.CallMemoMisses)
	}
	if res.Metrics.CallMemoMisses == 0 {
		t.Errorf("expected at least one call-memo miss (first visit), got 0")
	}

	off := opts
	off.DisableCallMemo = true
	_, resOff := analyze(t, memoSrc, off)
	if resOff.Metrics.CallMemoHits != 0 || resOff.Metrics.CallMemoMisses != 0 {
		t.Errorf("DisableCallMemo: counters should stay zero, got hits=%d misses=%d",
			resOff.Metrics.CallMemoHits, resOff.Metrics.CallMemoMisses)
	}

	// A memo hit only ever replaces work whose effects would have been a
	// no-op, so every observable output must match exactly.
	if !res.MainOut.C.Equal(resOff.MainOut.C) || !res.MainOut.E.Equal(resOff.MainOut.E) {
		t.Errorf("memo on/off results differ at main's exit")
	}
	if res.Rounds != resOff.Rounds || res.ProcAnalyses != resOff.ProcAnalyses {
		t.Errorf("memo on/off drivers diverge: rounds %d vs %d, proc analyses %d vs %d",
			res.Rounds, resOff.Rounds, res.ProcAnalyses, resOff.ProcAnalyses)
	}
}

// TestCallMemoOffWithContextCacheOff checks the memo is implicitly
// disabled with the context cache (a hit would skip the per-call callee
// re-solve that DisableContextCache asks for).
func TestCallMemoOffWithContextCacheOff(t *testing.T) {
	opts := mtpa.Options{Mode: mtpa.Multithreaded, DisableContextCache: true}
	_, res := analyze(t, memoSrc, opts)
	if res.Metrics.CallMemoHits != 0 || res.Metrics.CallMemoMisses != 0 {
		t.Errorf("DisableContextCache: memo should be inert, got hits=%d misses=%d",
			res.Metrics.CallMemoHits, res.Metrics.CallMemoMisses)
	}
}
