// Cancellation robustness of the analysis engine over the whole corpus.

package bench

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mtpa"
)

// TestCancellationNoLeakedGoroutines cancels every corpus analysis at
// staggered deadlines and asserts the goroutine count returns to its
// pre-run level: nothing may outlive AnalyzeContext, cancelled or not.
func TestCancellationNoLeakedGoroutines(t *testing.T) {
	progs, err := Programs()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		for i := range progs {
			p := &progs[i]
			prog, err := mtpa.Compile(p.Name+".clk", p.Source)
			if err != nil {
				t.Fatalf("%s: compile: %v", p.Name, err)
			}
			// Cancel at staggered points so some runs die early, some
			// late, some not at all.
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(round*3)*time.Millisecond)
			_, aerr := prog.AnalyzeContext(ctx, mtpa.Options{Mode: mtpa.Multithreaded})
			cancel()
			if aerr != nil && !errors.Is(aerr, context.DeadlineExceeded) && !errors.Is(aerr, context.Canceled) {
				t.Fatalf("%s: unexpected non-context error: %v", p.Name, aerr)
			}
		}
	}
	// The engine is sequential, so only runtime bookkeeping should lag;
	// allow it a few scheduler beats to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled runs", before, after)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
