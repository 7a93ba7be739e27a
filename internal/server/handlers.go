// The HTTP/JSON surface of mtpad. Routes (go1.22 method patterns):
//
//	POST   /v1/tenants                    create a tenant (mode, budget)
//	GET    /v1/tenants                    list tenants
//	DELETE /v1/tenants/{id}               close a tenant
//	POST   /v1/tenants/{id}/update        tiered update of one file
//	POST   /v1/tenants/{id}/query         query latest result (points_to | races)
//	GET    /v1/refinements/{token}        poll/long-poll a refinement
//	GET    /metrics                       serving + store + session counters
//	GET    /healthz                       liveness
//
// Status mapping: compile failures 422, unknown tenant/token/file 404,
// capacity refusals 429, per-request wait expiry with a refinement still
// in flight 504 (the body still carries the sound tier-0 answer),
// cancelled/superseded refinements 410, shutdown 503. A refinement that
// exceeded its tenant Budget is NOT an error: it lands as 200 with
// degraded contexts listed — the answer is sound, parts of it are
// flow-insensitive.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mtpa"
	"mtpa/internal/errs"
	"mtpa/internal/metrics"
)

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", s.instrument("", s.handleCreateTenant))
	mux.HandleFunc("GET /v1/tenants", s.instrument("", s.handleListTenants))
	mux.HandleFunc("DELETE /v1/tenants/{id}", s.byTenant(s.handleCloseTenant))
	mux.HandleFunc("POST /v1/tenants/{id}/update", s.byTenant(s.handleUpdate))
	mux.HandleFunc("POST /v1/tenants/{id}/query", s.byTenant(s.handleQuery))
	mux.HandleFunc("GET /v1/refinements/{token}", s.instrument("", s.handleRefinement))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// statusWriter records the status code for the serving counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-tenant request/latency
// counters and the global shutdown refusal.
func (s *Server) instrument(tenantID string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			writeError(w, http.StatusServiceUnavailable, errShuttingDown.Error())
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.counters.Observe(tenantID, time.Since(start), sw.status >= 400)
	}
}

// byTenant resolves the {id} path segment and instruments the handler
// under that tenant's counters.
func (s *Server) byTenant(h func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.instrument(id, func(w http.ResponseWriter, r *http.Request) {
			t, ok := s.tenant(id)
			if !ok {
				writeError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", id))
				return
			}
			h(w, r, t)
		})(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// --- tenants ---

type budgetSpec struct {
	MaxSolverSteps int `json:"max_solver_steps,omitempty"`
	MaxGraphNodes  int `json:"max_graph_nodes,omitempty"`
	MaxWallTimeMs  int `json:"max_wall_time_ms,omitempty"`
}

type createTenantRequest struct {
	ID     string      `json:"id,omitempty"`
	Mode   string      `json:"mode,omitempty"` // "multithreaded" (default) | "sequential"
	Budget *budgetSpec `json:"budget,omitempty"`
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req createTenantRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	switch req.Mode {
	case "", "multithreaded":
	case "sequential":
		opts.Mode = mtpa.Sequential
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q", req.Mode))
		return
	}
	if b := req.Budget; b != nil {
		opts.Budget = mtpa.Budget{
			MaxSolverSteps: b.MaxSolverSteps,
			MaxGraphNodes:  b.MaxGraphNodes,
			MaxWallTime:    time.Duration(b.MaxWallTimeMs) * time.Millisecond,
		}
	}
	t, err := s.createTenant(req.ID, opts)
	if err != nil {
		writeError(w, statusOf(err), err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": t.id})
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"tenants": ids})
}

func (s *Server) handleCloseTenant(w http.ResponseWriter, r *http.Request, t *tenant) {
	s.closeTenant(t.id)
	writeJSON(w, http.StatusOK, map[string]string{"closed": t.id})
}

// --- updates and refinements ---

type updateRequest struct {
	File   string `json:"file"`
	Source string `json:"source"`
	// WaitMs long-polls the refinement inline: the response carries the
	// refined answer when it lands within the wait, 504 + tier-0 + token
	// otherwise. 0 returns the tier-0 answer immediately.
	WaitMs int `json:"wait_ms,omitempty"`
	// TimeoutMs caps the refinement's wall-clock; past it the refinement
	// is cancelled (poll answers 410). Prefer a tenant budget for
	// degrade-instead-of-cancel semantics.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// tierZero is the immediately-available part of an update response.
type tierZero struct {
	Iterations int    `json:"iterations"`
	Graph      string `json:"graph,omitempty"`
}

type refinedAnswer struct {
	Fingerprint string   `json:"fingerprint"`
	Rounds      int      `json:"rounds"`
	Graph       string   `json:"graph,omitempty"`
	Degraded    []string `json:"degraded,omitempty"`
	ElapsedMs   float64  `json:"elapsed_ms"`
}

type updateResponse struct {
	Token   string         `json:"token"`
	Status  string         `json:"status"` // "running" | "done" | "cancelled" | "error"
	Tier0   *tierZero      `json:"tier0,omitempty"`
	Refined *refinedAnswer `json:"refined,omitempty"`
	Error   string         `json:"error,omitempty"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req updateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.File == "" {
		writeError(w, http.StatusBadRequest, "missing file")
		return
	}
	ref, err := s.startUpdate(t, req.File, req.Source, time.Duration(req.TimeoutMs)*time.Millisecond)
	if err != nil {
		var perr *errs.ParseError
		if errors.As(err, &perr) {
			writeError(w, http.StatusUnprocessableEntity, perr.Error())
			return
		}
		writeError(w, statusOf(err), err.Error())
		return
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if req.WaitMs == 0 {
		wait = s.cfg.DefaultWait
	}
	s.respondRefinement(w, r, ref, wait)
}

// respondRefinement renders a refinement's current state, long-polling
// up to wait. A wait that expires with the refinement still running is
// 504 with the tier-0 answer and the token; the client re-polls.
func (s *Server) respondRefinement(w http.ResponseWriter, r *http.Request, ref *refinement, wait time.Duration) {
	resp := updateResponse{Token: ref.token, Status: "running"}
	fast := ref.update.Fast
	resp.Tier0 = &tierZero{
		Iterations: fast.Iterations,
		Graph:      fast.Graph.FormatFiltered(ref.update.Program.Table(), ref.update.Program.TempFilter()),
	}

	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-ref.update.Done():
		case <-timer.C:
		case <-r.Context().Done():
		}
	}

	res, rerr, ok := ref.update.Poll()
	if !ok {
		s.counters.Timeout()
		writeJSON(w, http.StatusGatewayTimeout, resp)
		return
	}
	s.markClaimed(ref)
	switch {
	case rerr == nil:
		ans := ref.update.Answers()
		resp.Status = "done"
		resp.Refined = &refinedAnswer{
			Fingerprint: s.fingerprint(ans),
			Rounds:      res.Rounds,
			Graph:       s.graph(ans),
			ElapsedMs:   float64(time.Since(ref.started).Nanoseconds()) / 1e6,
		}
		for _, d := range res.Degraded {
			resp.Refined.Degraded = append(resp.Refined.Degraded, d.Proc+": "+d.Reason)
		}
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(rerr, context.Canceled), errors.Is(rerr, context.DeadlineExceeded):
		resp.Status = "cancelled"
		resp.Error = rerr.Error()
		writeJSON(w, http.StatusGone, resp)
	default:
		resp.Status = "error"
		resp.Error = rerr.Error()
		writeJSON(w, http.StatusInternalServerError, resp)
	}
}

func (s *Server) handleRefinement(w http.ResponseWriter, r *http.Request) {
	token := r.PathValue("token")
	ref, ok, expired := s.refinement(token)
	if expired {
		writeError(w, http.StatusGone, fmt.Sprintf("refinement token %q expired", token))
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown refinement %q", token))
		return
	}
	wait := time.Duration(0)
	if ms := r.URL.Query().Get("wait_ms"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad wait_ms")
			return
		}
		wait = time.Duration(n) * time.Millisecond
	}
	s.respondRefinement(w, r, ref, wait)
}

// --- queries ---

type queryRequest struct {
	File string `json:"file"`
	// Kind selects the answer: "points_to" (default) or "races".
	Kind   string `json:"kind,omitempty"`
	WaitMs int    `json:"wait_ms,omitempty"`
}

type queryResponse struct {
	Token       string   `json:"token"`
	Status      string   `json:"status"`
	Tier        string   `json:"tier"` // "tier0" | "refined"
	Fingerprint string   `json:"fingerprint,omitempty"`
	Graph       string   `json:"graph,omitempty"`
	Races       []string `json:"races,omitempty"`
	RaceCount   int      `json:"race_count"`
	Degraded    []string `json:"degraded,omitempty"`
	Error       string   `json:"error,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	t.mu.Lock()
	ref := t.files[req.File]
	t.mu.Unlock()
	if ref == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no update for file %q", req.File))
		return
	}

	if wait := time.Duration(req.WaitMs) * time.Millisecond; wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-ref.update.Done():
		case <-timer.C:
		case <-r.Context().Done():
		}
	}

	resp := queryResponse{Token: ref.token}
	prog := ref.update.Program
	res, rerr, done := ref.update.Poll()
	switch {
	case !done:
		// Refinement still in flight: answer with the sound tier-0 graph
		// and signal the degradation through the status code.
		resp.Status, resp.Tier = "running", "tier0"
		resp.Graph = ref.update.Fast.Graph.FormatFiltered(prog.Table(), prog.TempFilter())
		s.counters.Timeout()
		writeJSON(w, http.StatusGatewayTimeout, resp)
		return
	case rerr != nil:
		resp.Status, resp.Tier = "cancelled", "tier0"
		resp.Error = rerr.Error()
		resp.Graph = ref.update.Fast.Graph.FormatFiltered(prog.Table(), prog.TempFilter())
		if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
			writeJSON(w, http.StatusGone, resp)
		} else {
			resp.Status = "error"
			writeJSON(w, http.StatusInternalServerError, resp)
		}
		return
	}

	ans := ref.update.Answers()
	switch req.Kind {
	case "", "points_to":
		resp.Graph = s.graph(ans)
	case "races":
		resp.Races = s.races(ans)
		resp.RaceCount = len(resp.Races)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown query kind %q", req.Kind))
		return
	}
	resp.Status, resp.Tier = "done", "refined"
	resp.Fingerprint = s.fingerprint(ans)
	for _, d := range res.Degraded {
		resp.Degraded = append(resp.Degraded, d.Proc+": "+d.Reason)
	}
	writeJSON(w, http.StatusOK, resp)
}

// The refined answers come from the published result's answer memo
// (mtpa.Answers): each kind is derived once per result, and every later
// request only encodes it. These wrappers count which of the two each
// request did.

func (s *Server) fingerprint(ans *mtpa.Answers) string {
	fp, derived := ans.Fingerprint()
	s.counters.Answer(metrics.AnswerFingerprint, derived)
	return fp
}

func (s *Server) graph(ans *mtpa.Answers) string {
	g, derived := ans.Graph()
	s.counters.Answer(metrics.AnswerGraph, derived)
	return g
}

func (s *Server) races(ans *mtpa.Answers) []string {
	races, derived := ans.Races()
	s.counters.Answer(metrics.AnswerRaces, derived)
	return races
}

// --- metrics ---

// MetricsResponse is the /metrics document: serving counters, shared
// store probe counters and per-tenant session reuse statistics.
type MetricsResponse struct {
	Serving  metrics.ServingSnapshot        `json:"serving"`
	Analysis AnalysisTotals                 `json:"analysis"`
	Store    map[string]mtpa.StoreKindStats `json:"store"`
	StoreLen int                            `json:"store_len"`
	Sessions map[string]mtpa.SessionStats   `json:"sessions"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tenants := make(map[string]*tenant, len(s.tenants))
	for id, t := range s.tenants {
		tenants[id] = t
	}
	analysis := s.analysis
	s.mu.Unlock()
	resp := MetricsResponse{
		Serving:  s.counters.Snapshot(),
		Analysis: analysis,
		Store:    s.store.Stats(),
		StoreLen: s.store.Len(),
		Sessions: make(map[string]mtpa.SessionStats, len(tenants)),
	}
	for id, t := range tenants {
		resp.Sessions[id] = t.session.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, errOverCapacity), errors.Is(err, errTooManyTenants):
		return http.StatusTooManyRequests
	case errors.Is(err, errTenantExists):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}
