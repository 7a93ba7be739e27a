// The traced run's span recorder. Spans are recorded by the benchmark
// around its own calls into each layer, kept in memory and written to the
// trace file when the run ends. A nil *tracer is the untraced run: every
// method is a no-op on it.

package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer. Parent indexes the enclosing span
// (-1 for none); every span of one operation carries its op id. Allocs
// counts heap objects allocated between begin and end, children
// included.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
	Allocs uint64 `json:"allocs"`
}

type tracer struct {
	epoch    time.Time
	spans    []span
	samples  []metrics.Sample
	heapPeak uint64
	ops      int
	gc       gcMeter
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/memory/classes/heap/objects:bytes"},
		},
	}
}

// allocs reads the cumulative allocation count and folds the current
// heap size into the peak.
func (t *tracer) allocs() uint64 {
	metrics.Read(t.samples)
	if b := t.samples[1].Value.Uint64(); b > t.heapPeak {
		t.heapPeak = b
	}
	return t.samples[0].Value.Uint64()
}

// op returns a fresh operation id (0 when untraced).
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops - 1
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	a := t.allocs()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Nanoseconds(), Parent: parent, OpID: op, Allocs: a})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = time.Since(t.epoch).Nanoseconds()
	s.Allocs = t.allocs() - s.Allocs
}

// layer is the self time and self allocations of every span of one name.
type layer struct {
	selfNs int64
	allocs uint64
}

// children sums, per span, the durations and allocations of its direct
// children (spans nest: the recorder is driven from one goroutine).
func (t *tracer) children() (ns []int64, allocs []uint64) {
	ns = make([]int64, len(t.spans))
	allocs = make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			ns[s.Parent] += s.End - s.Start
			allocs[s.Parent] += s.Allocs
		}
	}
	return ns, allocs
}

// layers reduces the spans to per-name self totals: a span's self time is
// its duration minus its children's.
func (t *tracer) layers() map[string]layer {
	childNs, childAllocs := t.children()
	out := map[string]layer{}
	for i, s := range t.spans {
		l := out[s.Name]
		l.selfNs += s.End - s.Start - childNs[i]
		l.allocs += s.Allocs - min(s.Allocs, childAllocs[i])
		out[s.Name] = l
	}
	return out
}

// cover is one root span's duration and the part its children cover.
type cover struct{ opNs, coveredNs int64 }

// coverage returns the cover of every span named root.
func (t *tracer) coverage(root string) []cover {
	childNs, _ := t.children()
	var out []cover
	for i, s := range t.spans {
		if s.Name == root && s.End > s.Start {
			out = append(out, cover{s.End - s.Start, childNs[i]})
		}
	}
	return out
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// gcMeter accumulates the garbage collector's and the whole process's
// CPU time over the intervals it measures.
type gcMeter struct {
	gc, all float64
}

func cpuSeconds() (gc, all float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// measure runs f, adding its interval's CPU times.
func (m *gcMeter) measure(f func() error) error {
	gc0, all0 := cpuSeconds()
	err := f()
	gc1, all1 := cpuSeconds()
	m.gc += gc1 - gc0
	m.all += all1 - all0
	return err
}

// frac is the garbage collector's share of the measured CPU time.
func (m *gcMeter) frac() float64 { return ratio(m.gc, m.all) }

// tracedRun runs a traced run's four quarter windows — untraced, traced,
// traced, untraced — so that a drift across the run cancels out of the
// tracing overhead. An untimed quarter comes first: the process's heap
// grows during its first window, which would otherwise slow the first
// untraced quarter alone. quarter measures one window, with a nil tracer
// when untraced, and returns its rate of work; tracedRun returns one minus
// the traced rate over the untraced rate.
func tracedRun(tr *tracer, quarter func(*tracer) (float64, error)) (float64, error) {
	if _, err := quarter(nil); err != nil {
		return 0, err
	}
	var plain, traced float64
	for _, on := range []bool{false, true, true, false} {
		if !on {
			r, err := quarter(nil)
			if err != nil {
				return 0, err
			}
			plain += r
			continue
		}
		err := tr.gc.measure(func() error {
			r, err := quarter(tr)
			traced += r
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return 1 - ratio(traced, plain), nil
}
