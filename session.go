package mtpa

import (
	"context"

	"mtpa/internal/session"
)

// Session is an incremental analysis pipeline: a long-lived object that
// compiles and analyses successive versions of MiniCilk sources, reusing
// content-addressed artifacts — parsed declarations, naming environments
// and per-context analysis summaries — from previous updates. After an
// edit, only the changed procedures re-parse and only the procedure
// contexts whose transitive callee closure changed re-solve; everything
// else is served from the session's bounded artifact store.
//
// A warm Update is observably identical to a cold Compile + Analyze of
// the same source: same result, same measurements, same warnings, same
// errors. Compile and Analyze remain the one-shot entry points; a
// Session pays off when the same program is analysed repeatedly across
// small edits (editor integration, watch loops, regression drivers).
//
// Sessions are safe for concurrent use.
type Session struct {
	inner *session.Session
}

// SessionStats is the session-lifetime view of artifact reuse. See
// session.Stats.
type SessionStats = session.Stats

// UpdateStats reports what one Update reused and what it recomputed. See
// session.UpdateStats.
type UpdateStats = session.UpdateStats

// NewSession returns a session that runs every update with the given
// analysis options.
func NewSession(opts Options) *Session {
	return &Session{inner: session.New(opts, 0)}
}

// NewSessionCapacity is NewSession with an explicit artifact-store bound
// (number of retained artifacts; 0 selects the default).
func NewSessionCapacity(opts Options, capacity int) *Session {
	return &Session{inner: session.New(opts, capacity)}
}

// StoreKindStats counts probe outcomes for one artifact kind of a
// session store ("res" whole-file results, "env" naming environments,
// "ast" procedure ASTs, "sum" context summaries).
type StoreKindStats = session.KindStats

// SharedStore is a bounded, concurrency-safe, content-addressed artifact
// store that any number of Sessions can share. Sharing one store dedupes
// identical work across sessions: a tenant re-submitting a file another
// tenant already analysed (same name, content and options) hits the
// whole-file result cache, unchanged procedures reuse parsed ASTs, and
// context summaries seed each other's fixpoints. This is the storage
// layer of the multi-tenant analysis daemon (cmd/mtpad).
type SharedStore struct {
	inner *session.Store
}

// NewSharedStore returns a shared artifact store bounded to capacity
// entries (0 selects the default).
func NewSharedStore(capacity int) *SharedStore {
	return &SharedStore{inner: session.NewStore(capacity)}
}

// Len returns the number of stored artifacts.
func (s *SharedStore) Len() int { return s.inner.Len() }

// Stats returns a snapshot of the store's per-kind probe counters.
func (s *SharedStore) Stats() map[string]StoreKindStats { return s.inner.Stats() }

// NewSessionWithStore returns a session running every update with the
// given options over a shared artifact store. Sessions remain
// individually safe for concurrent use, and any number of them may share
// one store from any number of goroutines.
func NewSessionWithStore(opts Options, store *SharedStore) *Session {
	return &Session{inner: session.NewWithStore(opts, store.inner)}
}

// UpdateResult is the outcome of one Session.Update.
type UpdateResult struct {
	// Program is the compiled program (as from Compile).
	Program *Program
	// Result is the completed analysis (as from Program.Analyze).
	Result *Result
	// Stats reports what this update reused.
	Stats UpdateStats
}

// Update compiles and analyses one version of a file. The error taxonomy
// is identical to Compile followed by Analyze: malformed input returns a
// *ParseError with the same diagnostics Compile would produce, analysis
// failures a *AnalysisError, internal bugs an *ICEError.
func (s *Session) Update(filename, src string) (*UpdateResult, error) {
	return s.UpdateContext(context.Background(), filename, src)
}

// UpdateContext is Update with cooperative cancellation, mirroring
// Program.AnalyzeContext.
func (s *Session) UpdateContext(ctx context.Context, filename, src string) (*UpdateResult, error) {
	comp, res, stats, err := s.inner.UpdateContext(ctx, filename, src)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		File:     comp.File,
		AST:      comp.AST,
		Info:     comp.Info,
		IR:       comp.IR,
		Warnings: comp.Warnings,
	}
	return &UpdateResult{Program: prog, Result: res, Stats: stats}, nil
}

// Stats returns cumulative reuse statistics for the session.
func (s *Session) Stats() SessionStats {
	return s.inner.Stats()
}

// TieredUpdate is a two-tier session update in flight: the compiled
// program and the flow-insensitive tier-0 answer are available
// immediately (TieredResult.Fast); the flow-sensitive refinement —
// served from the whole-file cache when the source is byte-identical
// to a previous update, recomputed with summary seeding otherwise —
// arrives through the embedded TieredResult's Done / Refined / Poll /
// Notify.
type TieredUpdate struct {
	*TieredResult
	// Program is the compiled program, as from Compile.
	Program *Program

	stats   UpdateStats
	answers *Answers
}

// Answers derives and memoises the served forms of a published result —
// its fingerprint, the rendered points-to graph at main's exit and the
// race report — each at most once per result, shared by every update
// (of any session over the same store) that the result serves. See
// session.Answers.
type Answers = session.Answers

// Answers returns the served-answer memo of the refined result once the
// refinement has landed successfully; nil while it is running or after
// it failed. Whole-file cache hits, in this session or any other sharing
// the store, return the same memo as the update that published the
// result.
func (u *TieredUpdate) Answers() *Answers {
	select {
	case <-u.Done():
		return u.answers
	default:
		return nil
	}
}

// Stats returns the update's reuse statistics once the refinement has
// landed; ok is false while it is still running.
func (u *TieredUpdate) Stats() (stats UpdateStats, ok bool) {
	select {
	case <-u.Done():
		return u.stats, true
	default:
		return UpdateStats{}, false
	}
}

// UpdateTiered is the session analogue of Program.AnalyzeTiered: the
// compile stage and the tier-0 flow-insensitive answer are synchronous,
// the flow-sensitive refinement runs in the background (cancellable
// through ctx or Cancel). Compile-stage failures surface synchronously
// with Update's error taxonomy; analysis failures are delivered with
// the refinement. The flow-insensitive graph is computed once and
// shared with the refinement's Budget degradation fallback.
func (s *Session) UpdateTiered(ctx context.Context, filename, src string) (*TieredUpdate, error) {
	st, err := s.inner.StageUpdate(filename, src)
	if err != nil {
		return nil, err
	}
	comp := st.Compiled()
	fiG, fiIters := st.FlowInsens()
	ctx, cancel := context.WithCancel(ctx)
	u := &TieredUpdate{
		TieredResult: &TieredResult{
			Fast:   FastAnswer{Graph: fiG, Iterations: fiIters},
			done:   make(chan struct{}),
			cancel: cancel,
		},
		Program: &Program{
			File:     comp.File,
			AST:      comp.AST,
			Info:     comp.Info,
			IR:       comp.IR,
			Warnings: comp.Warnings,
		},
	}
	go func() {
		defer cancel()
		res, stats, err := s.inner.RunStaged(ctx, st, fiG)
		// Written before complete closes Done, read only after Done: the
		// channel close orders the accesses.
		u.stats = stats
		u.answers = st.Answers()
		u.complete(res, err)
	}()
	return u, nil
}
