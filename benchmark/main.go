// Command benchmark measures the mtpa stack end to end on one workload
// and checks every output it produced. Run it from the repository root
// through run.sh, which builds it and the mtpad daemon first:
//
//	bash benchmark/run.sh --workload oneshot-par --seed 1 --seconds 20 --trace 0
//
// Workloads: oneshot-par, oneshot-seq, edit-stream, mtpad-mixed (see
// README.md). An untraced run (-trace 0) prints the end-to-end metrics; a
// traced run (-trace 1) measures the window in quarters, untraced, traced,
// traced, untraced, prints the per-layer metrics and writes its spans to
// -trace-file. Every
// metric is printed on a line of its own (name, value, unit, sample
// count); the last line is one JSON object {correct, attempted, failed,
// metrics}. A failed output check exits 1 after printing it; an error
// that prevents measuring exits 1 without it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload  string
	seed      int64
	window    time.Duration
	trace     bool
	traceFile string
	root      string // repository root: corpus sources and golden rows
	mtpad     string // mtpad binary
	setupReps int
	files     int // edit-stream: edit only the first files (0 = all); the smoke test's toy size
}

var workloads = map[string]func(config) (*report, error){
	"oneshot-par": runOneshotPar,
	"oneshot-seq": runOneshotSeq,
	"edit-stream": runEditStream,
	"mtpad-mixed": runMtpad,
}

type unitName struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []unitName{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"first_answer_p50_ms", "ms"},
	{"first_answer_p90_ms", "ms"},
	{"refined_read_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in print order. A workload
// that does not reach a layer reports 0 for it.
var perLayer = []unitName{
	{"parser.self_ms", "ms"},
	{"sem.self_ms", "ms"},
	{"ir.self_ms", "ms"},
	{"frontend.allocs", "count"},
	{"pfg.self_ms", "ms"},
	{"flowinsens.self_ms", "ms"},
	{"flowinsens.iterations", "count"},
	{"core.self_ms", "ms"},
	{"core.allocs", "count"},
	{"core.rounds", "count"},
	{"core.contexts", "count"},
	{"core.proc_analyses", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.fastpath_share", "ratio"},
	{"race.self_ms", "ms"},
	{"race.reported", "count"},
	{"session.stage_ms", "ms"},
	{"session.run_ms", "ms"},
	{"session.seed_hit_ratio", "ratio"},
	{"session.procs_reused_ratio", "ratio"},
	{"session.result_hit_ratio", "ratio"},
	{"store.evictions", "count"},
	{"client.queue_ms", "ms"},
	{"client.gen_lag_ms", "ms"},
	{"server.rtt_ms.update", "ms"},
	{"server.rtt_ms.query", "ms"},
	{"server.rtt_ms.races", "ms"},
	{"server.refinements_completed", "count"},
	{"server.refinements_cancelled", "count"},
	{"store.res_hit_ratio", "ratio"},
	{"store.ast_hit_ratio", "ratio"},
	{"store.sum_hit_ratio", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	var cfg config
	var seconds, traced int
	flag.StringVar(&cfg.workload, "workload", "", "oneshot-par | oneshot-seq | edit-stream | mtpad-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traced, "trace", 0, "1 = traced run: print the per-layer metrics and write the spans")
	flag.StringVar(&cfg.traceFile, "trace-file", "", "span output of a traced run (default <root>/.bench_build/trace-<workload>-<seed>.json)")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.mtpad, "mtpad", "", "mtpad binary, for mtpad-mixed")
	flag.Parse()

	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = traced == 1
	cfg.setupReps = 5
	if cfg.trace {
		cfg.setupReps = 1
	}
	if cfg.traceFile == "" {
		cfg.traceFile = filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	}
	if err := validate(cfg, traced); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, os.Stderr)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func validate(cfg config, traced int) error {
	if _, ok := workloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.window <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.workload == "mtpad-mixed" && cfg.mtpad == "" {
		return fmt.Errorf("mtpad-mixed needs -mtpad")
	}
	return nil
}

// metric is one printed measurement; n is the number of samples behind
// it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is a run's outcome.
type report struct {
	digest    string
	attempted int
	failed    int
	problems  []string
	metrics   []metric // the JSON metrics: end-to-end or per-layer
	info      []metric // printed but not part of the JSON line
}

// fail counts one failed operation or output mismatch.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setMetrics fills r.metrics from vals in the order of names; a name
// without a value reports 0.
func (r *report) setMetrics(names []unitName, vals map[string]float64, n int) {
	for _, u := range names {
		r.metrics = append(r.metrics, metric{u.name, vals[u.name], u.unit, n})
	}
}

func (r *report) print(out, diag io.Writer) {
	for _, p := range r.problems {
		fmt.Fprintln(diag, "mismatch:", p)
	}
	fmt.Fprintf(out, "inputs.digest %s\n", r.digest)
	frac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(out, "%-30s %-14.6g %-6s n=%d\n", "failed_frac", frac, "ratio", r.attempted)
	for _, m := range append(r.info, r.metrics...) {
		fmt.Fprintf(out, "%-30s %-14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, map[string]value{}}
	for _, m := range r.metrics {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	data, _ := json.Marshal(line) // plain structs and finite floats always marshal
	fmt.Fprintln(out, string(data))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// round is one unit of fixed composition within a window: a oneshot pass
// over the partition, an edit-stream cycle over every file, or a slice of
// the mtpad schedule.
type round struct {
	ops        int
	busy       time.Duration // the round's measured time
	lat, first []float64     // per op that did not fail, in ms
	steal      float64       // share of the round's CPU time stolen (see stolen)
}

// add records one op; failed ops count in the rate only.
func (r *round) add(lat, first time.Duration, failed bool) {
	r.ops++
	if !failed {
		r.lat = append(r.lat, ms(lat))
		r.first = append(r.first, ms(first))
	}
}

// roundMetrics takes the rate and latency quantiles of every round, net
// of steal, and reports the median of each over the rounds: a stall or a
// slow stretch of the machine that spans a few rounds moves no median. It
// also reports the mean steal share as an unbounded extra.
func roundMetrics(rep *report, vals map[string]float64, rounds []round) {
	per := map[string][]float64{}
	steal := 0.0
	for _, r := range rounds {
		keep := 1 - r.steal
		steal += r.steal / float64(len(rounds))
		per["throughput_per_s"] = append(per["throughput_per_s"], ratio(float64(r.ops), r.busy.Seconds()*keep))
		per["latency_p50_ms"] = append(per["latency_p50_ms"], quantile(r.lat, 0.5)*keep)
		per["latency_p90_ms"] = append(per["latency_p90_ms"], quantile(r.lat, 0.9)*keep)
		per["first_answer_p50_ms"] = append(per["first_answer_p50_ms"], quantile(r.first, 0.5)*keep)
		per["first_answer_p90_ms"] = append(per["first_answer_p90_ms"], quantile(r.first, 0.9)*keep)
	}
	for name, xs := range per {
		vals[name] = quantile(xs, 0.5)
	}
	rep.info = append(rep.info, metric{"machine.steal_share", steal, "ratio", len(rounds)})
}

// cpuSample is the machine's cumulative CPU time, in clock ticks, from
// the first line of /proc/stat: time stolen by the hypervisor, and time
// spent running (user, nice, system, irq, softirq).
type cpuSample struct{ steal, busy uint64 }

func sampleCPU() cpuSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{} // no correction where the kernel does not tell
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return cpuSample{steal: v[7], busy: v[0] + v[1] + v[2] + v[5] + v[6]}
}

// stolen is the share of the CPU time the machine's processors wanted
// between a and b that the hypervisor gave to other guests instead. A
// shared host may steal half of it for minutes, which stretches every
// wall-clock time by up to 1/(1 − share); times are reported multiplied
// by 1 − share, as they would run on processors of their own.
func stolen(a, b cpuSample) float64 {
	s := float64(b.steal - a.steal)
	return ratio(s, s+float64(b.busy-a.busy))
}

// rate is the ops per second over all rounds together, net of steal.
func rate(rounds []round) float64 {
	var ops, busy float64
	for _, r := range rounds {
		ops += float64(r.ops)
		busy += r.busy.Seconds() * (1 - r.steal)
	}
	return ratio(ops, busy)
}

// tail is the 99th-percentile latency over every op of the rounds, an
// unbounded extra: too few samples in a round to take it per round.
func tail(rounds []round) metric {
	var lat []float64
	for _, r := range rounds {
		lat = append(lat, r.lat...)
	}
	return metric{"tail.latency_p99_ms", quantile(lat, 0.99), "ms", len(lat)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSetup runs setup reps times and returns the median duration in
// seconds, net of steal. Each repetition starts afresh, after an untimed
// teardown of the previous one when teardown is not nil; the last one's
// state is what the run measures.
func timeSetup(reps int, setup func() error, teardown func()) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		start, cpu := time.Now(), sampleCPU()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds()*(1-stolen(cpu, sampleCPU())))
	}
	return quantile(ds, 0.5), nil
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
