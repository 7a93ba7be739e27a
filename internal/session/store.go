// The session artifact store: one bounded, concurrency-safe map holding
// every content-addressed artifact of the incremental pipeline —
// whole-file results, naming environments, per-segment declaration ASTs
// and per-context analysis summaries — under prefixed string keys
// ("res|…", "env|…", "ast|…", "sum|…"). Eviction is
// least-recently-touched by generation stamp; every artifact is a pure
// cache entry, so evicting any of them costs recomputation, never
// correctness. That includes evicting one context summary while its
// callers' summaries stay: a seeded caller whose stored callee key no
// longer resolves drops its seed and is solved for real in the same
// round (core's applySeed), so the warm result still equals the cold one
// (TestSummaryEvictionWarmEqualsCold drops every summary of every corpus
// program in turn).

package session

import "sync"

// defaultCapacity bounds the artifact store when the caller does not.
const defaultCapacity = 8192

// Artifacts is the storage interface behind a session: a content-keyed
// cache of every artifact kind the incremental pipeline retains.
// Implementations must be safe for concurrent use by multiple sessions —
// the multi-tenant daemon shares one store between every tenant's
// session so identical artifacts (same filename, content and options)
// dedupe across tenants. Every entry is a pure cache: Get may miss at
// any time and the pipeline recomputes, so eviction policy is an
// implementation concern, never a correctness one.
type Artifacts interface {
	// Get returns the artifact stored under key.
	Get(key string) (any, bool)
	// Put stores an artifact under key.
	Put(key string, val any)
	// Len returns the number of stored artifacts.
	Len() int
	// Stats returns a snapshot of per-kind probe counters.
	Stats() map[string]KindStats
}

// Store is a bounded, mutex-guarded artifact cache — the standard
// Artifacts implementation, safe for concurrent use and for sharing
// between sessions. Its capacity counts entries, not bytes; the heaviest
// entries are whole-file results (cachedRun), which hold a run's answers
// only.
type Store struct {
	mu    sync.Mutex
	cap   int
	gen   int64
	items map[string]*storeEntry
	stats map[string]*KindStats
}

type storeEntry struct {
	val any
	gen int64
}

// KindStats counts the probe outcomes for one artifact kind (the key
// prefix up to the first '|').
type KindStats struct {
	Hits      int
	Misses    int
	Evictions int
}

// NewStore returns a store bounded to capacity entries (0 selects the
// default).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	return &Store{
		cap:   capacity,
		items: map[string]*storeEntry{},
		stats: map[string]*KindStats{},
	}
}

func keyKind(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return key[:i]
		}
	}
	return key
}

func (s *Store) kindStats(key string) *KindStats {
	k := keyKind(key)
	st, ok := s.stats[k]
	if !ok {
		st = &KindStats{}
		s.stats[k] = st
	}
	return st
}

// Get returns the artifact stored under key, refreshing its eviction
// stamp, and counts the probe.
func (s *Store) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.kindStats(key)
	e, ok := s.items[key]
	if !ok {
		st.Misses++
		return nil, false
	}
	st.Hits++
	s.gen++
	e.gen = s.gen
	return e.val, true
}

// Put stores an artifact, evicting the least-recently-touched entry when
// the store is full.
func (s *Store) Put(key string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	if e, ok := s.items[key]; ok {
		e.val = val
		e.gen = s.gen
		return
	}
	if len(s.items) >= s.cap {
		var victim string
		var oldest int64
		for k, e := range s.items {
			if victim == "" || e.gen < oldest {
				victim, oldest = k, e.gen
			}
		}
		s.kindStats(victim).Evictions++
		delete(s.items, victim)
	}
	s.items[key] = &storeEntry{val: val, gen: s.gen}
}

// Len returns the number of stored artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Stats returns a snapshot of the per-kind probe counters.
func (s *Store) Stats() map[string]KindStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]KindStats, len(s.stats))
	for k, st := range s.stats {
		out[k] = *st
	}
	return out
}

// CountKind returns the number of stored artifacts of one kind (the key
// prefix up to the first '|').
func (s *Store) CountKind(kind string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.items {
		if keyKind(k) == kind {
			n++
		}
	}
	return n
}
