package server_test

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"mtpa"
	"mtpa/internal/race"
)

// coldAnswers are the refined answers of a one-shot Compile+Analyze.
type coldAnswers struct {
	fingerprint string
	graph       string
	races       []string
}

func coldAnswersOf(t *testing.T, file, src string) coldAnswers {
	t.Helper()
	prog, err := mtpa.Compile(file, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Analyze(mtpa.Options{Mode: mtpa.Multithreaded})
	if err != nil {
		t.Fatal(err)
	}
	c := coldAnswers{
		fingerprint: res.Fingerprint(),
		graph:       res.MainOut.C.FormatFiltered(prog.Table(), prog.TempFilter()),
	}
	for _, r := range race.New(prog.IR, res).Detect() {
		c.races = append(c.races, r.String())
	}
	return c
}

// answerCounts reads serving.answers from /metrics: per kind, the
// derived and memo counters under their stable names.
func answerCounts(t *testing.T, h http.Handler) map[string][2]int {
	t.Helper()
	code, body := do(t, h, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	answers, ok := body["serving"].(map[string]any)["answers"].(map[string]any)
	if !ok {
		t.Fatalf("no serving.answers in /metrics: %v", body["serving"])
	}
	out := map[string][2]int{}
	for _, kind := range []string{"fingerprint", "graph", "races"} {
		k, ok := answers[kind].(map[string]any)
		if !ok {
			t.Fatalf("no serving.answers.%s in /metrics: %v", kind, answers)
		}
		derived, dok := k["derived"].(float64)
		memo, mok := k["memo"].(float64)
		if !dok || !mok {
			t.Fatalf("serving.answers.%s lacks derived/memo: %v", kind, k)
		}
		out[kind] = [2]int{int(derived), int(memo)}
	}
	if len(answers) != 3 {
		t.Errorf("serving.answers has kinds %v, want exactly fingerprint, graph, races", answers)
	}
	return out
}

// TestAnswerCounters pins the /metrics names of the answer counters and
// what they count: the first read of each kind derives it, every later
// read of the same published result is a memo hit — including a second
// tenant's whole-file cache hit on the same source.
func TestAnswerCounters(t *testing.T) {
	_, h := newTestServer(t)
	src := mustLoad(t, "knary")
	for _, id := range []string{"a", "b"} {
		do(t, h, "POST", "/v1/tenants", map[string]any{"id": id})
	}
	if got := answerCounts(t, h); got["fingerprint"] != [2]int{} || got["graph"] != [2]int{} || got["races"] != [2]int{} {
		t.Fatalf("fresh daemon answer counters %v, want all zero", got)
	}

	// The refined update response derives the fingerprint and the graph.
	if code, body := do(t, h, "POST", "/v1/tenants/a/update",
		map[string]any{"file": "knary.clk", "source": src, "wait_ms": 30000}); code != http.StatusOK {
		t.Fatalf("update: %d %v", code, body)
	}
	for _, kind := range []string{"points_to", "races", "races"} {
		if code, body := do(t, h, "POST", "/v1/tenants/a/query",
			map[string]any{"file": "knary.clk", "kind": kind, "wait_ms": 30000}); code != http.StatusOK {
			t.Fatalf("%s query: %d %v", kind, code, body)
		}
	}
	// Tenant b submits the same source: a whole-file hit on a's
	// published result, whose answers are all memoised already.
	if code, body := do(t, h, "POST", "/v1/tenants/b/update",
		map[string]any{"file": "knary.clk", "source": src, "wait_ms": 30000}); code != http.StatusOK {
		t.Fatalf("tenant b update: %d %v", code, body)
	}
	if code, body := do(t, h, "POST", "/v1/tenants/b/query",
		map[string]any{"file": "knary.clk", "kind": "races", "wait_ms": 30000}); code != http.StatusOK {
		t.Fatalf("tenant b races query: %d %v", code, body)
	}

	want := map[string][2]int{
		"fingerprint": {1, 5}, // a update, 3 a queries, b update, b query
		"graph":       {1, 2}, // a update, a points-to query, b update
		"races":       {1, 2}, // 2 a races queries, 1 b races query
	}
	if got := answerCounts(t, h); !reflect.DeepEqual(got, want) {
		t.Errorf("answer counters {derived, memo} = %v, want %v", got, want)
	}
}

// TestAnswerMemoHammer drives the answer memo from many goroutines at
// once (run it under -race): 8 goroutines mix points-to queries, races
// queries and refinement polls on one token while its refinement lands,
// then a second tenant sharing the store re-submits the same program and
// the goroutines hammer both tenants. Every answer must equal a cold
// run's, and each kind must be derived exactly once: both tenants serve
// one published result.
func TestAnswerMemoHammer(t *testing.T) {
	_, h := newTestServer(t)
	const file = "knary.clk"
	src := mustLoad(t, "knary")
	cold := coldAnswersOf(t, file, src)
	if len(cold.races) == 0 {
		t.Fatal("test program reports no races; the races memo would go unexercised")
	}
	for _, id := range []string{"a", "b"} {
		do(t, h, "POST", "/v1/tenants", map[string]any{"id": id})
	}

	var mu sync.Mutex
	served := map[string]int{}
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	count := func(kinds ...string) {
		mu.Lock()
		for _, k := range kinds {
			served[k]++
		}
		mu.Unlock()
	}
	// request runs request i of a hammer round against tenant id (whose
	// refinement token is token) and checks its answer. It runs on the
	// hammer goroutines, so it records failures instead of stopping.
	request := func(i int, id, token string) {
		switch i % 3 {
		case 0:
			code, body, err := serve(h, "POST", "/v1/tenants/"+id+"/query",
				map[string]any{"file": file, "kind": "points_to", "wait_ms": 30000})
			if err != nil || code != http.StatusOK || body["fingerprint"] != cold.fingerprint || body["graph"] != cold.graph {
				fail("%s points-to query: %d %v %v", id, code, body, err)
				return
			}
			count("fingerprint", "graph")
		case 1:
			code, body, err := serve(h, "POST", "/v1/tenants/"+id+"/query",
				map[string]any{"file": file, "kind": "races", "wait_ms": 30000})
			var races []string
			if list, ok := body["races"].([]any); ok {
				for _, r := range list {
					races = append(races, fmt.Sprint(r))
				}
			}
			if err != nil || code != http.StatusOK || body["fingerprint"] != cold.fingerprint ||
				!reflect.DeepEqual(races, cold.races) || body["race_count"] != float64(len(cold.races)) {
				fail("%s races query: %d %v %v", id, code, body, err)
				return
			}
			count("fingerprint", "races")
		case 2:
			code, body, err := serve(h, "GET", "/v1/refinements/"+token+"?wait_ms=30000", nil)
			refined, _ := body["refined"].(map[string]any)
			if err != nil || code != http.StatusOK || refined["fingerprint"] != cold.fingerprint || refined["graph"] != cold.graph {
				fail("%s refinement poll: %d %v %v", id, code, body, err)
				return
			}
			count("fingerprint", "graph")
		}
	}
	hammer := func(tokens map[string]string) {
		ids := make([]string, 0, len(tokens))
		for id := range tokens {
			ids = append(ids, id)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					id := ids[(g+i)%len(ids)]
					request(g+i, id, tokens[id])
				}
			}(g)
		}
		wg.Wait()
	}

	// Tenant a's update returns at once (tier 0); the hammer races the
	// refinement's landing and the answers' first derivation.
	code, body := do(t, h, "POST", "/v1/tenants/a/update", map[string]any{"file": file, "source": src})
	tokenA, _ := body["token"].(string)
	switch code {
	case http.StatusOK: // refined before the response was written
		count("fingerprint", "graph")
	case http.StatusGatewayTimeout:
	default:
		t.Fatalf("tenant a update: %d %v", code, body)
	}
	hammer(map[string]string{"a": tokenA})

	// Tenant b's identical submission is a whole-file hit on a's
	// published result.
	code, body = do(t, h, "POST", "/v1/tenants/b/update",
		map[string]any{"file": file, "source": src, "wait_ms": 30000})
	refined, _ := body["refined"].(map[string]any)
	if code != http.StatusOK || refined["fingerprint"] != cold.fingerprint || refined["graph"] != cold.graph {
		t.Fatalf("tenant b update: %d %v", code, body)
	}
	count("fingerprint", "graph")
	tokenB, _ := body["token"].(string)
	code, body = do(t, h, "GET", "/metrics", nil)
	if hits := body["store"].(map[string]any)["res"].(map[string]any)["Hits"]; code != http.StatusOK || hits != float64(1) {
		t.Fatalf("tenant b's update was not a whole-file hit on a's result: res hits %v", hits)
	}
	hammer(map[string]string{"a": tokenA, "b": tokenB})

	for _, f := range failures {
		t.Error(f)
	}
	got := answerCounts(t, h)
	for _, kind := range []string{"fingerprint", "graph", "races"} {
		if c := got[kind]; c[0] != 1 || c[0]+c[1] != served[kind] {
			t.Errorf("%s: derived %d, memo %d; want derived exactly once of %d served", kind, c[0], c[1], served[kind])
		}
	}
}
