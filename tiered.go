// The tiered query API: answer now, refine later.
//
// AnalyzeTiered returns immediately with the flow-insensitive
// (Andersen-style) points-to graph — a sound over-approximation of every
// flow-sensitive fact the full analysis can compute, available in one
// cheap pass — and starts the flow-sensitive multithreaded fixpoint in
// the background. Callers consume the fast answer at once and upgrade
// when the refinement lands: by blocking (Refined), selecting (Done),
// polling (Poll), or registering an upgrade callback (Notify — the seam
// a serving layer such as a future analysis daemon subscribes to).
//
// The flow-insensitive graph is computed once per Program and shared:
// between repeated tiered queries, and with the refinement's own Budget
// degradation fallback (core.AnalyzeContextFI), which previously
// recomputed it from scratch inside the engine.

package mtpa

import (
	"context"
	"errors"
	"sync"

	"mtpa/internal/core"
	"mtpa/internal/flowinsens"
)

// FastAnswer is the tier-0 result of a tiered query: the
// flow-insensitive points-to graph and the number of iterations its
// fixpoint took. The graph is an immutable snapshot (frozen before
// publication) shared with the running refinement's degradation
// fallback, with later queries on the same Program, and — in a serving
// deployment — with any number of concurrent HTTP encoders: reading and
// Clone-ing it from many goroutines is race-free; do not mutate it.
type FastAnswer struct {
	Graph      *Graph
	Iterations int
}

// FastPathEligible reports whether the engine's sequential fast path
// will fire for this program: no par, parfor or spawn construct is
// reachable from main through the call graph (conservatively over
// function pointers). Eligible programs analyze on an interference-free
// engine mode with bit-identical results; see Options.DisableSeqFastPath.
func (p *Program) FastPathEligible() bool {
	return !p.IR.ParReachable()
}

// FlowInsensitive returns the program's flow-insensitive points-to
// graph, computing it on first use and caching it for the life of the
// Program. This is the tier-0 answer of AnalyzeTiered; treat the graph
// as read-only.
func (p *Program) FlowInsensitive() FastAnswer {
	p.fiOnce.Do(func() {
		fi := flowinsens.Analyze(p.IR)
		// Freeze before publication: every later Clone (repeated queries,
		// the refinement's degradation fallback, concurrent response
		// encoders) is then write-free on the shared graph.
		fi.Graph.Freeze()
		p.fiAnswer = FastAnswer{Graph: fi.Graph, Iterations: fi.Iterations}
	})
	return p.fiAnswer
}

// TieredResult is a two-tier analysis in flight: the fast answer is
// already here, the refinement arrives asynchronously.
type TieredResult struct {
	// Fast is the tier-0 answer, valid immediately.
	Fast FastAnswer

	done   chan struct{}
	cancel context.CancelFunc

	mu sync.Mutex
	// completed is set under mu before done is closed; Notify keys off it
	// (not the channel) so a callback registered between complete's
	// handover of subs and the channel close still fires exactly once.
	completed bool
	res       *Result
	err       error
	subs      []func(*Result, error)
}

// AnalyzeTiered answers the query in two tiers. It returns immediately:
// the TieredResult carries the flow-insensitive tier-0 answer, and a
// background goroutine runs the flow-sensitive refinement — with the
// given Options, honouring Budget, cancellable
// through ctx or Cancel. The refinement is delivered through Done /
// Refined / Poll / Notify; its failure taxonomy is AnalyzeContext's.
func (p *Program) AnalyzeTiered(ctx context.Context, opts Options) *TieredResult {
	fast := p.FlowInsensitive()
	ctx, cancel := context.WithCancel(ctx)
	t := &TieredResult{Fast: fast, done: make(chan struct{}), cancel: cancel}
	go func() {
		defer cancel()
		res, err := core.AnalyzeContextFI(ctx, p.IR, opts, fast.Graph)
		t.complete(res, p.wrapAnalysisErr(err))
	}()
	return t
}

// complete records the refinement outcome, closes Done and fires the
// registered upgrade callbacks (in registration order).
func (t *TieredResult) complete(res *Result, err error) {
	t.mu.Lock()
	t.res, t.err = res, err
	t.completed = true
	subs := t.subs
	t.subs = nil
	t.mu.Unlock()
	close(t.done)
	for _, f := range subs {
		f(res, err)
	}
}

// Done returns a channel closed when the refinement has landed (or
// failed, or been cancelled). After Done is closed, Refined does not
// block.
func (t *TieredResult) Done() <-chan struct{} { return t.done }

// Refined blocks until the flow-sensitive refinement is available and
// returns it. On failure or cancellation the result is nil and the
// error carries the cause (errors.Is(err, context.Canceled) holds after
// a cancel); the tier-0 answer in Fast remains valid and sound either
// way.
func (t *TieredResult) Refined() (*Result, error) {
	<-t.done
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.res, t.err
}

// Poll is the non-blocking Refined: ok reports whether the refinement
// has landed yet.
func (t *TieredResult) Poll() (res *Result, err error, ok bool) {
	select {
	case <-t.done:
		res, err = t.Refined()
		return res, err, true
	default:
		return nil, nil, false
	}
}

// Notify registers an upgrade callback invoked exactly once, when the
// refinement lands (immediately, if it already has). Callbacks run on
// the refinement goroutine — or the caller's, in the already-done case —
// so they should hand off promptly. This is the upgrade-notification
// seam a serving layer (e.g. an analysis daemon pushing tier upgrades to
// clients) plugs into.
//
// The exactly-once guarantee holds under every registration/completion
// interleaving a daemon subscriber can lose: a callback registered after
// the refinement completed, or after Cancel, still fires once with the
// final result/error. (Notify decides on the completed flag set under
// the mutex, not on the Done channel: complete hands over the registered
// callbacks before it closes the channel, so a channel-based check could
// park a late callback on the dead subscriber list and never fire it.)
func (t *TieredResult) Notify(f func(*Result, error)) {
	t.mu.Lock()
	if t.completed {
		res, err := t.res, t.err
		t.mu.Unlock()
		f(res, err)
		return
	}
	t.subs = append(t.subs, f)
	t.mu.Unlock()
}

// Cancel stops the in-flight refinement; the fast answer stays valid.
// Refined then reports the cancellation. Cancel is idempotent and safe
// after completion.
func (t *TieredResult) Cancel() { t.cancel() }

// wrapAnalysisErr applies the public failure taxonomy to a core engine
// error (nil passes through).
func (p *Program) wrapAnalysisErr(err error) error {
	if err == nil {
		return nil
	}
	var ice *ICEError
	if errors.As(err, &ice) {
		return ice
	}
	return &AnalysisError{File: p.File, Err: err}
}
