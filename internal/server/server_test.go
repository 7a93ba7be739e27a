package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtpa"
	"mtpa/internal/bench"
	"mtpa/internal/server"
)

// do runs one request through the daemon mux and decodes the JSON body.
func do(t *testing.T, h http.Handler, method, path string, body any) (int, map[string]any) {
	t.Helper()
	code, out, err := serve(h, method, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// serve is do for goroutines other than the test's own: it returns the
// failure instead of stopping the test.
func serve(h http.Handler, method, path string, body any) (int, map[string]any, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, nil, err
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]any{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return 0, nil, fmt.Errorf("%s %s: non-JSON body %q", method, path, rec.Body.String())
	}
	return rec.Code, out, nil
}

func mustLoad(t *testing.T, name string) string {
	t.Helper()
	p, err := bench.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Source
}

func coldFingerprint(t *testing.T, file, src string, opts mtpa.Options) string {
	t.Helper()
	prog, err := mtpa.Compile(file, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Fingerprint()
}

func newTestServer(t *testing.T) (*server.Server, http.Handler) {
	t.Helper()
	srv := server.New(server.Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return srv, srv.Handler()
}

func TestTenantLifecycleAndQuery(t *testing.T) {
	_, h := newTestServer(t)
	src := mustLoad(t, "fib")
	want := coldFingerprint(t, "fib.clk", src, mtpa.Options{Mode: mtpa.Multithreaded})

	code, body := do(t, h, "POST", "/v1/tenants", map[string]any{"id": "alice"})
	if code != http.StatusCreated || body["id"] != "alice" {
		t.Fatalf("create: %d %v", code, body)
	}
	// Duplicate id is a conflict.
	if code, _ := do(t, h, "POST", "/v1/tenants", map[string]any{"id": "alice"}); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", code)
	}

	code, body = do(t, h, "POST", "/v1/tenants/alice/update",
		map[string]any{"file": "fib.clk", "source": src, "wait_ms": 30000})
	if code != http.StatusOK || body["status"] != "done" {
		t.Fatalf("update: %d %v", code, body)
	}
	refined := body["refined"].(map[string]any)
	if refined["fingerprint"] != want {
		t.Fatalf("refined fingerprint %v, want cold %v", refined["fingerprint"], want)
	}
	tier0 := body["tier0"].(map[string]any)
	if tier0["graph"] == "" {
		t.Fatal("empty tier-0 graph")
	}

	code, body = do(t, h, "POST", "/v1/tenants/alice/query",
		map[string]any{"file": "fib.clk", "kind": "points_to", "wait_ms": 30000})
	if code != http.StatusOK || body["tier"] != "refined" || body["fingerprint"] != want {
		t.Fatalf("query: %d %v", code, body)
	}

	// Unknowns are 404s.
	if code, _ := do(t, h, "POST", "/v1/tenants/nobody/update", map[string]any{"file": "x", "source": ""}); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d", code)
	}
	if code, _ := do(t, h, "POST", "/v1/tenants/alice/query", map[string]any{"file": "other.clk"}); code != http.StatusNotFound {
		t.Fatalf("unknown file: %d", code)
	}
	if code, _ := do(t, h, "GET", "/v1/refinements/r-999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown token: %d", code)
	}

	code, _ = do(t, h, "DELETE", "/v1/tenants/alice", nil)
	if code != http.StatusOK {
		t.Fatalf("close: %d", code)
	}
	if code, _ = do(t, h, "POST", "/v1/tenants/alice/query", map[string]any{"file": "fib.clk"}); code != http.StatusNotFound {
		t.Fatalf("query after close: %d", code)
	}
}

func TestCompileErrorIs422(t *testing.T) {
	_, h := newTestServer(t)
	do(t, h, "POST", "/v1/tenants", map[string]any{"id": "t"})
	code, body := do(t, h, "POST", "/v1/tenants/t/update",
		map[string]any{"file": "bad.clk", "source": "int main( {"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("compile error: %d %v", code, body)
	}
}

// TestBudgetExceededDegrades pins the admission-control contract: a
// refinement that blows its tenant budget is not a failure — it lands as
// 200 "done" with the degraded contexts listed, and the answer falls
// back to the flow-insensitive graph for those contexts.
func TestBudgetExceededDegrades(t *testing.T) {
	srv, h := newTestServer(t)
	src := mustLoad(t, "mol")

	do(t, h, "POST", "/v1/tenants", map[string]any{
		"id":     "tight",
		"budget": map[string]any{"max_solver_steps": 1},
	})
	code, body := do(t, h, "POST", "/v1/tenants/tight/update",
		map[string]any{"file": "mol.clk", "source": src, "wait_ms": 60000})
	if code != http.StatusOK || body["status"] != "done" {
		t.Fatalf("budgeted update: %d %v", code, body)
	}
	refined := body["refined"].(map[string]any)
	degraded, _ := refined["degraded"].([]any)
	if len(degraded) == 0 {
		t.Fatalf("budget of 1 solver step did not degrade any context: %v", refined)
	}
	if snap := srv.Counters().Snapshot(); snap.BudgetDegraded == 0 {
		t.Error("BudgetDegraded counter not incremented")
	}
	// The degraded answer fingerprints differently from the exact one —
	// but it must match a cold run under the same budget (determinism).
	want := coldFingerprint(t, "mol.clk", src, mtpa.Options{
		Mode:   mtpa.Multithreaded,
		Budget: mtpa.Budget{MaxSolverSteps: 1},
	})
	if refined["fingerprint"] != want {
		t.Errorf("degraded fingerprint %v, want cold budgeted %v", refined["fingerprint"], want)
	}
}

// TestWaitExpiryIs504ThenRefines pins the timeout path: a wait that
// expires with the refinement in flight answers 504 carrying the sound
// tier-0 answer and the token; a later long-poll upgrades to 200.
func TestWaitExpiryIs504ThenRefines(t *testing.T) {
	srv, h := newTestServer(t)
	src := mustLoad(t, "mol")
	want := coldFingerprint(t, "mol.clk", src, mtpa.Options{Mode: mtpa.Multithreaded})

	do(t, h, "POST", "/v1/tenants", map[string]any{"id": "slow"})
	code, body := do(t, h, "POST", "/v1/tenants/slow/update",
		map[string]any{"file": "mol.clk", "source": src}) // wait 0: answer now
	if code != http.StatusGatewayTimeout {
		t.Fatalf("immediate answer on a slow program: %d %v", code, body)
	}
	if body["status"] != "running" {
		t.Fatalf("status %v, want running", body["status"])
	}
	tier0 := body["tier0"].(map[string]any)
	if tier0["graph"] == "" {
		t.Fatal("504 body lacks the tier-0 graph")
	}
	token, _ := body["token"].(string)
	if token == "" {
		t.Fatal("504 body lacks the refinement token")
	}
	if snap := srv.Counters().Snapshot(); snap.Timeouts == 0 {
		t.Error("Timeouts counter not incremented")
	}

	code, body = do(t, h, "GET", "/v1/refinements/"+token+"?wait_ms=60000", nil)
	if code != http.StatusOK || body["status"] != "done" {
		t.Fatalf("long-poll: %d %v", code, body)
	}
	refined := body["refined"].(map[string]any)
	if refined["fingerprint"] != want {
		t.Errorf("refined fingerprint %v, want cold %v", refined["fingerprint"], want)
	}
}

// TestPerRequestTimeoutCancels pins timeout_ms: past it the refinement
// is cancelled and the token answers 410 Gone.
func TestPerRequestTimeoutCancels(t *testing.T) {
	_, h := newTestServer(t)
	src := mustLoad(t, "mol")

	do(t, h, "POST", "/v1/tenants", map[string]any{"id": "hasty"})
	code, body := do(t, h, "POST", "/v1/tenants/hasty/update",
		map[string]any{"file": "mol.clk", "source": src, "timeout_ms": 1, "wait_ms": 30000})
	if code != http.StatusGone || body["status"] != "cancelled" {
		t.Fatalf("timed-out update: %d %v", code, body)
	}
	token := body["token"].(string)
	if code, body = do(t, h, "GET", "/v1/refinements/"+token, nil); code != http.StatusGone {
		t.Fatalf("poll of cancelled refinement: %d %v", code, body)
	}
}

func TestRacesQuery(t *testing.T) {
	_, h := newTestServer(t)
	// Two threads push through one shared list head: a pointer-mediated
	// race the analysis must report.
	const racy = `
struct node { int v; struct node *next; };
struct node *head;

cilk void worker(int v) {
  struct node *n;
  n = (struct node *)malloc(sizeof(struct node));
  n->v = v;
  n->next = head;
  head = n;
}

int main() {
  head = NULL;
  par {
    { worker(1); }
    { worker(2); }
  }
  return 0;
}
`
	do(t, h, "POST", "/v1/tenants", map[string]any{"id": "r"})
	code, body := do(t, h, "POST", "/v1/tenants/r/update",
		map[string]any{"file": "racy.clk", "source": racy, "wait_ms": 30000})
	if code != http.StatusOK {
		t.Fatalf("update: %d %v", code, body)
	}
	code, body = do(t, h, "POST", "/v1/tenants/r/query",
		map[string]any{"file": "racy.clk", "kind": "races", "wait_ms": 30000})
	if code != http.StatusOK {
		t.Fatalf("races query: %d %v", code, body)
	}
	if n, _ := body["race_count"].(float64); n == 0 {
		t.Fatalf("no races reported on a racy program: %v", body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, h := newTestServer(t)
	src := mustLoad(t, "fib")
	do(t, h, "POST", "/v1/tenants", map[string]any{"id": "m"})
	do(t, h, "POST", "/v1/tenants/m/update",
		map[string]any{"file": "fib.clk", "source": src, "wait_ms": 30000})

	code, body := do(t, h, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	serving := body["serving"].(map[string]any)
	total := serving["total"].(map[string]any)
	if total["requests"].(float64) < 2 {
		t.Errorf("total request count %v, want >= 2", total["requests"])
	}
	tenants := serving["tenants"].(map[string]any)
	if _, ok := tenants["m"]; !ok {
		t.Errorf("no per-tenant counters for m: %v", tenants)
	}
	if body["store_len"].(float64) == 0 {
		t.Error("empty store after an update")
	}
	if _, ok := body["sessions"].(map[string]any)["m"]; !ok {
		t.Error("no session stats for tenant m")
	}

	// The analysis totals accumulate from the refinement's Notify
	// callback, which may still be running when the update response
	// lands; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		analysis := body["analysis"].(map[string]any)
		if analysis["contexts"].(float64) > 0 && analysis["proc_analyses"].(float64) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("analysis totals never accumulated: %v", analysis)
		}
		time.Sleep(10 * time.Millisecond)
		_, body = do(t, h, "GET", "/metrics", nil)
	}
}

// TestShutdownCancelsAndDrains pins the graceful-shutdown contract: an
// in-flight refinement is cancelled, its goroutines drain, and the
// daemon goes 503 — without leaking goroutines.
func TestShutdownCancelsAndDrains(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := server.New(server.Config{})
	h := srv.Handler()
	src := mustLoad(t, "mol")
	do(t, h, "POST", "/v1/tenants", map[string]any{"id": "z"})
	code, body := do(t, h, "POST", "/v1/tenants/z/update",
		map[string]any{"file": "mol.clk", "source": src}) // refinement in flight
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expected in-flight refinement, got %d %v", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := do(t, h, "GET", "/v1/tenants", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown request: %d, want 503", code)
	}
	if code, _ := do(t, h, "POST", "/v1/tenants", map[string]any{}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown create: %d, want 503", code)
	}

	// Goroutines must drain back to (about) the pre-server level. Allow
	// brief settling: the refinement goroutine exits after Notify fires.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 || time.Now().After(deadline) {
			if n > before+2 {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak after shutdown: %d -> %d\n%s",
					before, n, string(buf[:runtime.Stack(buf, true)]))
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSupersededRefinementIsCancelled: a newer update of the same file
// cancels the older in-flight refinement; its token answers 410.
func TestSupersededRefinementIsCancelled(t *testing.T) {
	_, h := newTestServer(t)
	src := mustLoad(t, "mol")

	do(t, h, "POST", "/v1/tenants", map[string]any{"id": "e"})
	code, body := do(t, h, "POST", "/v1/tenants/e/update",
		map[string]any{"file": "mol.clk", "source": src})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("first update finished too fast: %d", code)
	}
	oldToken := body["token"].(string)

	edited := strings.Replace(src, "{", "{\n", 1)
	code, body = do(t, h, "POST", "/v1/tenants/e/update",
		map[string]any{"file": "mol.clk", "source": edited, "wait_ms": 60000})
	if code != http.StatusOK {
		t.Fatalf("second update: %d %v", code, body)
	}

	code, body = do(t, h, "GET", "/v1/refinements/"+oldToken+"?wait_ms=30000", nil)
	if code != http.StatusGone && code != http.StatusOK {
		t.Fatalf("superseded token: %d %v", code, body)
	}
}

// TestTokenTTLExpiry pins the refinement-token garbage collector: an
// unclaimed token answers 410 Gone once its refinement has been landed
// for longer than TokenTTL, the TokensExpired counter records it, a
// claimed token is collected silently (404), and per-file query state
// survives the expiry.
func TestTokenTTLExpiry(t *testing.T) {
	const ttl = 25 * time.Millisecond
	srv := server.New(server.Config{TokenTTL: ttl})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	h := srv.Handler()
	do(t, h, "POST", "/v1/tenants", map[string]any{"id": "ttl"})

	// Unclaimed token: a slow program with wait 0 answers 504 before the
	// refinement lands, so the update response does not carry (and thus
	// does not claim) the final answer.
	code, body := do(t, h, "POST", "/v1/tenants/ttl/update",
		map[string]any{"file": "mol.clk", "source": mustLoad(t, "mol")})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow update answered early: %d %v", code, body)
	}
	unclaimed := body["token"].(string)

	// Claimed token: a tiny program long-polled to completion inside the
	// update request redeems its own token.
	src := "int x; int *p; int main(int argc) { p = &x; return 0; }"
	code, body = do(t, h, "POST", "/v1/tenants/ttl/update",
		map[string]any{"file": "tiny.clk", "source": src, "wait_ms": 60000})
	if code != http.StatusOK {
		t.Fatalf("claimed update: %d %v", code, body)
	}
	claimed := body["token"].(string)

	// Land the slow refinement without touching its token (file queries
	// do not claim), then wait out the TTL.
	code, body = do(t, h, "POST", "/v1/tenants/ttl/query",
		map[string]any{"file": "mol.clk", "wait_ms": 60000})
	if code != http.StatusOK || body["status"] != "done" {
		t.Fatalf("query to land mol: %d %v", code, body)
	}
	time.Sleep(4 * ttl)

	code, body = do(t, h, "GET", "/v1/refinements/"+unclaimed, nil)
	if code != http.StatusGone {
		t.Fatalf("expired unclaimed token: %d %v, want 410", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "expired") {
		t.Errorf("410 body should say expired: %v", body)
	}
	code, body = do(t, h, "GET", "/v1/refinements/"+claimed, nil)
	if code != http.StatusNotFound {
		t.Fatalf("expired claimed token: %d %v, want 404", code, body)
	}
	if snap := srv.Counters().Snapshot(); snap.TokensExpired != 1 {
		t.Errorf("TokensExpired = %d, want 1 (only the unclaimed token)", snap.TokensExpired)
	}

	// File-level query state is untouched by token GC.
	code, body = do(t, h, "POST", "/v1/tenants/ttl/query",
		map[string]any{"file": "mol.clk", "wait_ms": 60000})
	if code != http.StatusOK || body["status"] != "done" {
		t.Errorf("query after token expiry: %d %v", code, body)
	}
}
