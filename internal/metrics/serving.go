// Serving-side counters for the multi-tenant analysis daemon
// (cmd/mtpad). Unlike the rest of this package, which measures one
// analysis run, these aggregate across a daemon's lifetime: requests and
// latency per tenant, plus the admission-control outcomes (timeouts,
// budget degradations, refinement completions) that the /metrics
// endpoint reports next to the shared store's artifact counters, and
// how the daemon's served answers were obtained: derived from a
// published result, or read from its answer memo.

package metrics

import (
	"sync"
	"time"
)

// ServingCounters accumulates daemon-wide and per-tenant request
// counters. All methods are safe for concurrent use; a zero value is not
// usable, construct with NewServingCounters.
type ServingCounters struct {
	mu      sync.Mutex
	total   tenantCounters
	tenants map[string]*tenantCounters

	timeouts       int64
	budgetDegraded int64
	refStarted     int64
	refCompleted   int64
	refCancelled   int64
	tokensExpired  int64
	answers        [numAnswerKinds]AnswerStats
}

// AnswerKind is one served form of a published result.
type AnswerKind int

// The served answer kinds, each memoised separately per result.
const (
	AnswerFingerprint AnswerKind = iota
	AnswerGraph
	AnswerRaces
	numAnswerKinds
)

// AnswerStats counts how one kind of served answer was obtained: derived
// from the result (at most once per published result) or served from
// the result's answer memo.
type AnswerStats struct {
	Derived int64 `json:"derived"`
	Memo    int64 `json:"memo"`
}

// AnswersSnapshot is the per-kind view of the answer counters. The JSON
// names (answers.fingerprint.derived, answers.races.memo, ...) are
// stable.
type AnswersSnapshot struct {
	Fingerprint AnswerStats `json:"fingerprint"`
	Graph       AnswerStats `json:"graph"`
	Races       AnswerStats `json:"races"`
}

type tenantCounters struct {
	requests int64
	errors   int64
	totalNs  int64
	maxNs    int64
}

// NewServingCounters returns an empty counter set.
func NewServingCounters() *ServingCounters {
	return &ServingCounters{tenants: map[string]*tenantCounters{}}
}

// Observe records one finished request for a tenant. Requests not
// attributable to a tenant (listing, metrics scrapes) pass tenant "";
// they count toward the daemon totals only.
func (c *ServingCounters) Observe(tenant string, d time.Duration, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total.observe(d, failed)
	if tenant == "" {
		return
	}
	tc, ok := c.tenants[tenant]
	if !ok {
		tc = &tenantCounters{}
		c.tenants[tenant] = tc
	}
	tc.observe(d, failed)
}

func (t *tenantCounters) observe(d time.Duration, failed bool) {
	t.requests++
	if failed {
		t.errors++
	}
	ns := d.Nanoseconds()
	t.totalNs += ns
	if ns > t.maxNs {
		t.maxNs = ns
	}
}

// Timeout records a request that exceeded its wall-time limit.
func (c *ServingCounters) Timeout() {
	c.mu.Lock()
	c.timeouts++
	c.mu.Unlock()
}

// BudgetDegraded records a refinement that exceeded a resource budget
// and served a degraded (partly flow-insensitive) answer.
func (c *ServingCounters) BudgetDegraded() {
	c.mu.Lock()
	c.budgetDegraded++
	c.mu.Unlock()
}

// TokenExpired records a refinement token dropped by the TTL garbage
// collector before any client claimed its final answer.
func (c *ServingCounters) TokenExpired() {
	c.mu.Lock()
	c.tokensExpired++
	c.mu.Unlock()
}

// RefinementStarted records a tier-1 refinement entering flight.
func (c *ServingCounters) RefinementStarted() {
	c.mu.Lock()
	c.refStarted++
	c.mu.Unlock()
}

// RefinementFinished records a refinement leaving flight, either
// completed or cancelled (by client, timeout or shutdown).
func (c *ServingCounters) RefinementFinished(cancelled bool) {
	c.mu.Lock()
	if cancelled {
		c.refCancelled++
	} else {
		c.refCompleted++
	}
	c.mu.Unlock()
}

// Answer records one served answer of the given kind, derived by this
// request or read from the memo.
func (c *ServingCounters) Answer(kind AnswerKind, derived bool) {
	c.mu.Lock()
	if derived {
		c.answers[kind].Derived++
	} else {
		c.answers[kind].Memo++
	}
	c.mu.Unlock()
}

// DropTenant discards a closed tenant's counters (its requests remain in
// the daemon totals).
func (c *ServingCounters) DropTenant(tenant string) {
	c.mu.Lock()
	delete(c.tenants, tenant)
	c.mu.Unlock()
}

// TenantServing is the per-tenant (or daemon-total) view of the request
// counters, in JSON-friendly units.
type TenantServing struct {
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	MaxLatencyMs  float64 `json:"max_latency_ms"`
}

func (t *tenantCounters) view() TenantServing {
	v := TenantServing{
		Requests:     t.requests,
		Errors:       t.errors,
		MaxLatencyMs: float64(t.maxNs) / 1e6,
	}
	if t.requests > 0 {
		v.MeanLatencyMs = float64(t.totalNs) / float64(t.requests) / 1e6
	}
	return v
}

// ServingSnapshot is a point-in-time copy of every serving counter, as
// rendered by the daemon's /metrics endpoint.
type ServingSnapshot struct {
	Total                TenantServing            `json:"total"`
	Timeouts             int64                    `json:"timeouts"`
	BudgetDegraded       int64                    `json:"budget_degraded"`
	RefinementsStarted   int64                    `json:"refinements_started"`
	RefinementsCompleted int64                    `json:"refinements_completed"`
	RefinementsCancelled int64                    `json:"refinements_cancelled"`
	TokensExpired        int64                    `json:"tokens_expired"`
	Answers              AnswersSnapshot          `json:"answers"`
	Tenants              map[string]TenantServing `json:"tenants"`
}

// Snapshot returns a consistent copy of all counters.
func (c *ServingCounters) Snapshot() ServingSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := ServingSnapshot{
		Total:                c.total.view(),
		Timeouts:             c.timeouts,
		BudgetDegraded:       c.budgetDegraded,
		RefinementsStarted:   c.refStarted,
		RefinementsCompleted: c.refCompleted,
		RefinementsCancelled: c.refCancelled,
		TokensExpired:        c.tokensExpired,
		Answers: AnswersSnapshot{
			Fingerprint: c.answers[AnswerFingerprint],
			Graph:       c.answers[AnswerGraph],
			Races:       c.answers[AnswerRaces],
		},
		Tenants: make(map[string]TenantServing, len(c.tenants)),
	}
	for name, tc := range c.tenants {
		s.Tenants[name] = tc.view()
	}
	return s
}
