// mtpad-mixed: the multi-tenant serving path. The cmd/mtpad binary runs
// as a child process on a free loopback port; 8 tenants, one program each,
// share its artifact store. The load is open loop at a fixed rate over two
// client connections, each carrying the requests of four tenants in order:
// 10% tier-0 updates, 72% points-to and 18% races queries, all with
// wait_ms 0. Every latency is timed from the request's due time, so a
// stall also counts against the requests queued behind it. The schedule
// runs in slices of mtpadSlice; the first is sent and checked but not
// measured.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a running mtpad child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan error
}

func startDaemon(bin string, client *http.Client) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("find a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{url: "http://" + addr, exited: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", addr)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mtpad: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("mtpad exited at start (%v): %s", err, d.stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mtpad not ready after 10s: %s", d.stderr.String())
		}
	}
}

// stop shuts the daemon down gracefully, killing it if it has not exited
// within 15s, and returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads the daemon's high-water resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read mtpad status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in mtpad status")
}

// answer is the part of an update or query response the checks read.
type answer struct {
	Token       string `json:"token"`
	Status      string `json:"status"`
	Tier        string `json:"tier"`
	Fingerprint string `json:"fingerprint"`
	RaceCount   int    `json:"race_count"`
	Refined     *struct {
		Fingerprint string `json:"fingerprint"`
	} `json:"refined"`
}

// reqResult is one request's outcome; the times are absolute.
type reqResult struct {
	due, pushed, sent, done time.Time
	status                  int
	body                    []byte
	err                     error
}

type mtpadRun struct {
	progs   []*program
	in      *inputs
	sources map[[2]int]string // ⟨program, version⟩ → source
	d       *daemon
	client  *http.Client
	// tokens maps a refinement token to the ⟨program, version⟩ its update
	// sent.
	tokens map[string][2]int
	// running[t] is the token of tenant t's last refinement while no
	// answer has shown it landed; settles[t] counts the updates that
	// waited for it. Only the worker of t's connection touches them.
	running []string
	settles []int
}

func tenantID(t int) string { return "t" + strconv.Itoa(t) }

func (w *mtpadRun) post(path string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.client.Post(w.d.url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// setup starts a daemon, creates the tenants and uploads each tenant's
// base version, waiting for the refinement.
func (w *mtpadRun) setup(cfg config) error {
	progs, err := loadPrograms(cfg.root, paperCorpus)
	if err != nil {
		return err
	}
	w.progs = progs
	w.in = genInputs(cfg.workload, progs, cfg.seed, cfg.window)
	w.sources = map[[2]int]string{}
	for _, p := range w.in.tenants {
		for v, counts := range w.in.versions[p] {
			w.sources[[2]int{p, v}] = progs[p].source(counts)
		}
	}
	w.tokens = map[string][2]int{}
	w.running = make([]string, len(w.in.tenants))
	w.settles = make([]int, len(w.in.tenants))
	if w.d, err = startDaemon(cfg.mtpad, w.client); err != nil {
		return err
	}
	for t, p := range w.in.tenants {
		code, body, err := w.post("/v1/tenants", map[string]string{"id": tenantID(t)})
		if err != nil || code != http.StatusCreated {
			return fmt.Errorf("create tenant: %d %s %v", code, body, err)
		}
		code, body, err = w.post("/v1/tenants/"+tenantID(t)+"/update", map[string]any{
			"file": progs[p].file, "source": w.sources[[2]int{p, 0}], "wait_ms": 60000,
		})
		var a answer
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &a)
		}
		if err != nil || code != http.StatusOK || a.Refined == nil {
			return fmt.Errorf("upload base of %s: %d %.200s %v", tenantID(t), code, body, err)
		}
		w.tokens[a.Token] = [2]int{p, 0}
	}
	return nil
}

// do sends one scheduled request. An update first lets the tenant's
// previous refinement land, when no answer has shown that it has: two
// refinements of one file in flight at once are not warm ≡ cold (see
// README.md, "Known issue"). The wait counts in the update's latency.
func (w *mtpadRun) do(r request) reqResult {
	t := r.tenant
	p := w.in.tenants[t]
	path := "/v1/tenants/" + tenantID(t) + "/query"
	var body any
	switch r.kind {
	case reqUpdate:
		if tok := w.running[t]; tok != "" {
			resp, err := w.client.Get(w.d.url + "/v1/refinements/" + tok + "?wait_ms=60000")
			if err != nil {
				return reqResult{err: fmt.Errorf("wait for refinement %s: %w", tok, err), done: time.Now()}
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse; the answer is checked elsewhere
			resp.Body.Close()
			w.running[t] = ""
			w.settles[t]++
		}
		path = "/v1/tenants/" + tenantID(t) + "/update"
		body = map[string]any{"file": w.progs[p].file, "source": w.sources[[2]int{p, r.version}]}
	case reqPointsTo:
		body = map[string]string{"file": w.progs[p].file, "kind": "points_to"}
	default:
		body = map[string]string{"file": w.progs[p].file, "kind": "races"}
	}
	res := reqResult{sent: time.Now()}
	res.status, res.body, res.err = w.post(path, body)
	res.done = time.Now()
	if res.err != nil {
		return res
	}
	var a answer
	switch {
	case r.kind == reqUpdate && res.status == http.StatusGatewayTimeout:
		if json.Unmarshal(res.body, &a) == nil {
			w.running[t] = a.Token
		}
	case w.running[t] != "" && json.Unmarshal(res.body, &a) == nil && a.Tier == "refined" && a.Token == w.running[t]:
		w.running[t] = ""
	}
	return res
}

// sliceLen is the number of requests in one slice of the schedule.
const sliceLen = int(mtpadSlice / time.Second * mtpadRate)

// window sends reqs on their schedule, due times counted from the first
// request's. Each of the two connections has a worker sending, in order,
// the requests of its tenants that the generator queues; a queue holds
// every request, so the generator never waits for a worker. It samples
// the machine's CPU time at the due time of every slice's first request
// and once every request has completed: cpu[k] and cpu[k+1] bound slice k.
func (w *mtpadRun) window(reqs []request) (results []reqResult, cpu []cpuSample) {
	results = make([]reqResult, len(reqs))
	type item struct {
		i      int
		pushed time.Time
	}
	queues := [2]chan item{make(chan item, len(reqs)), make(chan item, len(reqs))}
	var wg sync.WaitGroup
	for _, q := range queues {
		wg.Add(1)
		go func(q chan item) {
			defer wg.Done()
			for it := range q {
				res := w.do(reqs[it.i])
				res.pushed = it.pushed
				results[it.i] = res
			}
		}(q)
	}
	start := time.Now()
	for i, r := range reqs {
		sleepUntil(start.Add(r.due - reqs[0].due))
		if i%sliceLen == 0 {
			cpu = append(cpu, sampleCPU())
		}
		queues[w.in.conns[r.tenant]] <- item{i, time.Now()}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	cpu = append(cpu, sampleCPU())
	for i, r := range reqs {
		results[i].due = start.Add(r.due - reqs[0].due)
	}
	return results, cpu
}

// sleepUntil blocks the calling thread in nanosleep until t. A runtime
// timer would wake up to a millisecond late, which the open-loop
// latencies, timed from the due time, would count.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// daemonMetrics is the part of /metrics the per-layer metrics read.
type daemonMetrics struct {
	Serving struct {
		RefinementsCompleted int64 `json:"refinements_completed"`
		RefinementsCancelled int64 `json:"refinements_cancelled"`
	} `json:"serving"`
	Analysis struct {
		Contexts     int `json:"contexts"`
		ProcAnalyses int `json:"proc_analyses"`
		MemoHits     int `json:"memo_hits"`
		MemoMisses   int `json:"memo_misses"`
		SeedHits     int `json:"seed_hits"`
		SeedMisses   int `json:"seed_misses"`
	} `json:"analysis"`
	Store map[string]struct{ Hits, Misses, Evictions int } `json:"store"`
}

func (w *mtpadRun) metrics() (*daemonMetrics, error) {
	resp, err := w.client.Get(w.d.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	defer resp.Body.Close()
	var m daemonMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

func runMtpad(cfg config) (rep *report, err error) {
	w := &mtpadRun{client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	defer w.client.CloseIdleConnections()
	defer func() {
		if w.d != nil {
			w.d.stop()
		}
	}()
	setup, err := timeSetup(cfg.setupReps, func() error { return w.setup(cfg) }, func() {
		w.d.stop()
		w.d = nil
	})
	if err != nil {
		return nil, err
	}
	rep = &report{digest: w.in.digest()}
	reqs := w.in.requests
	warm := sliceLen

	if !cfg.trace {
		results, cpu := w.window(reqs)
		rss, err := w.d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		w.check(rep, reqs, results)
		vals := w.endToEnd(rep, reqs[warm:], results[warm:], cpu[1:])
		vals["setup_s"] = setup
		vals["peak_rss_mb"] = rss
		settles := 0
		for _, n := range w.settles {
			settles += n
		}
		rep.info = append(rep.info, metric{"client.settle_waits", float64(settles), "count", len(reqs)})
		rep.setMetrics(endToEnd, vals, len(reqs))
		return rep, nil
	}

	// The quarters run on through the measured part of the schedule on one
	// daemon, the untimed first quarter standing in for the warm-up and the
	// last wrapping around to the first. The spans are rebuilt from the
	// recorded times after each window, so tracing costs the daemon
	// nothing; the overhead, measured on the median read latency, is
	// run-to-run noise.
	reqs = reqs[warm:]
	tr := newTracer()
	var traced []reqResult
	var tracedReqs []request
	var before, after []*daemonMetrics
	quarter := 0
	overhead, err := tracedRun(tr, func(t *tracer) (float64, error) {
		k := quarter % 4
		q := reqs[k*len(reqs)/4 : (k+1)*len(reqs)/4]
		quarter++
		var m0 *daemonMetrics
		if t != nil {
			if m0, err = w.metrics(); err != nil {
				return 0, err
			}
		}
		results, cpu := w.window(q)
		w.check(rep, q, results)
		if t != nil {
			m1, err := w.metrics()
			if err != nil {
				return 0, err
			}
			before, after = append(before, m0), append(after, m1)
			tracedReqs, traced = append(tracedReqs, q...), append(traced, results...)
			w.addSpans(t, q, results)
		}
		return ratio(1, w.endToEnd(&report{}, q, results, cpu)["latency_p50_ms"]), nil
	})
	if err != nil {
		return nil, err
	}
	if err := tr.write(cfg.traceFile); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}

	vals := map[string]float64{"trace.overhead_frac": overhead}
	var queue, lag float64
	rtt := map[int][]float64{}
	for i, r := range traced {
		queue += ms(r.sent.Sub(r.due))
		lag += ms(r.pushed.Sub(r.due))
		kind := tracedReqs[i].kind
		rtt[kind] = append(rtt[kind], ms(r.done.Sub(r.sent)))
	}
	n := float64(len(traced))
	vals["client.queue_ms"] = queue / n
	vals["client.gen_lag_ms"] = lag / n
	for kind, name := range reqKindNames {
		vals["server.rtt_ms."+name] = quantile(rtt[kind], 0.5)
	}
	// delta sums one /metrics counter's growth over the traced windows.
	delta := func(counter func(*daemonMetrics) int) float64 {
		d := 0
		for i := range before {
			d += counter(after[i]) - counter(before[i])
		}
		return float64(d)
	}
	hitRatio := func(hits, misses func(*daemonMetrics) int) float64 {
		h := delta(hits)
		return ratio(h, h+delta(misses))
	}
	done := delta(func(m *daemonMetrics) int { return int(m.Serving.RefinementsCompleted) })
	vals["server.refinements_completed"] = done
	vals["server.refinements_cancelled"] = delta(func(m *daemonMetrics) int { return int(m.Serving.RefinementsCancelled) })
	vals["core.contexts"] = ratio(delta(func(m *daemonMetrics) int { return m.Analysis.Contexts }), done)
	vals["core.proc_analyses"] = ratio(delta(func(m *daemonMetrics) int { return m.Analysis.ProcAnalyses }), done)
	vals["core.memo_hit_ratio"] = hitRatio(
		func(m *daemonMetrics) int { return m.Analysis.MemoHits },
		func(m *daemonMetrics) int { return m.Analysis.MemoMisses })
	vals["session.seed_hit_ratio"] = hitRatio(
		func(m *daemonMetrics) int { return m.Analysis.SeedHits },
		func(m *daemonMetrics) int { return m.Analysis.SeedMisses })
	for _, kind := range []string{"res", "ast", "sum"} {
		vals["store."+kind+"_hit_ratio"] = hitRatio(
			func(m *daemonMetrics) int { return m.Store[kind].Hits },
			func(m *daemonMetrics) int { return m.Store[kind].Misses })
	}
	vals["store.evictions"] = delta(func(m *daemonMetrics) int {
		e := 0
		for _, k := range m.Store {
			e += k.Evictions
		}
		return e
	})
	rep.setMetrics(perLayer, vals, len(traced))
	return rep, nil
}

// endToEnd computes the serving metrics of one window, whose slice k the
// samples cpu[k] and cpu[k+1] bound. Every slice is a round: its read
// latencies are the round's latencies, its update latencies the round's
// first answers, and the latency metrics are medians over the slices, net
// of steal. Throughput and refined reads are taken over the whole window.
func (w *mtpadRun) endToEnd(rep *report, reqs []request, results []reqResult, cpu []cpuSample) map[string]float64 {
	vals := map[string]float64{}
	if len(results) == 0 {
		return vals
	}
	var rounds []round
	var updates []float64
	refined, answered, completed := 0, 0, 0
	last := results[0].due
	for i, r := range results {
		if i%sliceLen == 0 {
			k := i / sliceLen
			rounds = append(rounds, round{steal: stolen(cpu[k], cpu[k+1])})
		}
		if r.err != nil {
			continue
		}
		s := &rounds[len(rounds)-1]
		completed++
		if r.done.After(last) {
			last = r.done
		}
		lat := ms(r.done.Sub(r.due))
		if reqs[i].kind == reqUpdate {
			s.first = append(s.first, lat)
			updates = append(updates, lat)
			continue
		}
		s.lat = append(s.lat, lat)
		var a answer
		if json.Unmarshal(r.body, &a) == nil {
			answered++
			if a.Tier == "refined" {
				refined++
			}
		}
	}
	roundMetrics(rep, vals, rounds)
	vals["throughput_per_s"] = float64(completed) / last.Sub(results[0].due).Seconds()
	vals["refined_read_frac"] = ratio(float64(refined), float64(answered))
	rep.info = append(rep.info, tail(rounds),
		metric{"tail.first_answer_p99_ms", quantile(updates, 0.99), "ms", len(updates)})
	return vals
}

// addSpans records one window's client-side spans after the fact: per
// request, the wait in the client queue and the round trip to the daemon.
func (w *mtpadRun) addSpans(tr *tracer, reqs []request, results []reqResult) {
	at := func(t time.Time) int64 { return t.Sub(tr.epoch).Nanoseconds() }
	for i, r := range results {
		op, root := tr.op(), len(tr.spans)
		tr.spans = append(tr.spans,
			span{Name: "request", Start: at(r.due), End: at(r.done), Parent: -1, OpID: op},
			span{Name: "client.queue", Start: at(r.due), End: at(r.sent), Parent: root, OpID: op},
			span{Name: "server.rtt." + reqKindNames[reqs[i].kind], Start: at(r.sent), End: at(r.done), Parent: root, OpID: op})
	}
}

// check fails every request that errored or answered other than 200 or
// the documented 504 tier-0 answer, and compares every refined answer
// with a cold run of the source behind its token: the fingerprint, and
// for races queries the race count.
func (w *mtpadRun) check(rep *report, reqs []request, results []reqResult) {
	rep.attempted += len(reqs)
	answers := make([]answer, len(results))
	for i, r := range results {
		if r.err == nil && (r.status == http.StatusOK || r.status == http.StatusGatewayTimeout) {
			if err := json.Unmarshal(r.body, &answers[i]); err != nil {
				results[i].err = fmt.Errorf("decode response: %w", err)
				continue
			}
			if reqs[i].kind == reqUpdate {
				p := w.in.tenants[reqs[i].tenant]
				w.tokens[answers[i].Token] = [2]int{p, reqs[i].version}
			}
		}
	}
	jobIdx := map[[2]int]int{}
	var jobs []coldJob
	for i, r := range results {
		pv, ok := w.tokens[answers[i].Token]
		if _, seen := jobIdx[pv]; ok && !seen && r.err == nil && r.status == http.StatusOK {
			jobIdx[pv] = len(jobs)
			jobs = append(jobs, coldJob{w.progs[pv[0]].file, w.sources[pv]})
		}
	}
	refs := coldAnswers(jobs)
	for i, r := range results {
		a := answers[i]
		kind := reqKindNames[reqs[i].kind]
		if r.err != nil {
			rep.fail("%s %d: %v", kind, i, r.err)
			continue
		}
		if r.status == http.StatusGatewayTimeout && a.Status == "running" {
			continue // the tier-0 answer of a refinement still in flight
		}
		if r.status != http.StatusOK {
			rep.fail("%s %d: status %d: %.200s", kind, i, r.status, r.body)
			continue
		}
		fp := a.Fingerprint
		if a.Refined != nil {
			fp = a.Refined.Fingerprint
		}
		pv, ok := w.tokens[a.Token]
		if !ok {
			rep.fail("%s %d: unknown token %q", kind, i, a.Token)
			continue
		}
		ref := refs[jobIdx[pv]]
		switch {
		case ref.err != nil:
			rep.fail("%s %d: cold run: %v", kind, i, ref.err)
		case fp != ref.fingerprint:
			rep.fail("%s %d (%s v%d): fingerprint differs from cold", kind, i, w.progs[pv[0]].name, pv[1])
		case reqs[i].kind == reqRaces && a.RaceCount != ref.races:
			rep.fail("%s %d (%s v%d): %d races, cold run finds %d", kind, i, w.progs[pv[0]].name, pv[1], a.RaceCount, ref.races)
		}
	}
}
