package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64. Updates are one atomic
// CAS loop on the raw bits; Inc on the common integer path is a single
// add via the same loop.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v. Negative deltas are programmer error
// and ignored (counters are monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) sampleLines(name, sig string) []string {
	return []string{name + sig + " " + formatValue(c.Value())}
}

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) sampleLines(name, sig string) []string {
	return []string{name + sig + " " + formatValue(g.Value())}
}

// gaugeFunc is a gauge evaluated at scrape time.
type gaugeFunc func() float64

func (f gaugeFunc) sampleLines(name, sig string) []string {
	return []string{name + sig + " " + formatValue(f())}
}

// Histogram is a fixed-bucket cumulative histogram. bounds hold the
// inclusive upper edges (ascending); counts[i] is the number of
// observations with v <= bounds[i] that did not fit an earlier bucket,
// and counts[len(bounds)] is the implicit +Inf overflow bucket. sumBits
// accumulates the raw observation sum.
//
// Observe is lock-free: a binary search plus two atomic adds. The scrape
// path reads counts non-transactionally, which is fine for monitoring —
// each sample line is individually coherent and the exposition-determinism
// test quiesces writers first.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64

	exMu      sync.Mutex
	exemplars []exemplar // guarded by exMu; lazily len(bounds)+1; zero traceID = unset
}

// exemplar pins one concrete observation — a trace/span reference and the
// observed value — to a histogram bucket, so an operator reading a slow
// bucket on /metrics can jump straight to a representative trace in
// /debug/traces.
type exemplar struct {
	traceID, spanID string
	value           float64
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d: %v", i, bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records v. A value exactly on a bucket's upper edge lands in
// that bucket (le is inclusive, per the exposition format).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the owning bucket
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records v like Observe and pins a trace/span exemplar
// to the owning bucket (latest observation wins), rendered after that
// bucket's sample line OpenMetrics-style:
//
//	name_bucket{le="0.5"} 3 # {span_id="s01",trace_id="t000007"} 0.31
//
// An empty traceID degrades to a plain Observe, so callers can pass the
// IDs unconditionally and let disabled/sampled-out tracing opt out.
func (h *Histogram) ObserveExemplar(v float64, traceID, spanID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exMu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.bounds)+1)
	}
	h.exemplars[i] = exemplar{traceID: traceID, spanID: spanID, value: v}
	h.exMu.Unlock()
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns the bucket upper bounds (ending with +Inf) and the
// cumulative count at or below each bound.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64) {
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	cumulative = make([]uint64, len(bounds))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return bounds, cumulative
}

func (h *Histogram) sampleLines(name, sig string) []string {
	bounds, cum := h.Snapshot()
	h.exMu.Lock()
	ex := append([]exemplar(nil), h.exemplars...)
	h.exMu.Unlock()
	lines := make([]string, 0, len(bounds)+2)
	for i, b := range bounds {
		line := name + "_bucket" + mergeSig(sig, "le", formatValue(b)) + " " +
			formatValue(float64(cum[i]))
		if i < len(ex) && ex[i].traceID != "" {
			line += " # " + labelSig([]string{"trace_id", "span_id"}, []string{ex[i].traceID, ex[i].spanID}) +
				" " + formatValue(ex[i].value)
		}
		lines = append(lines, line)
	}
	lines = append(lines,
		name+"_sum"+sig+" "+formatValue(h.Sum()),
		name+"_count"+sig+" "+formatValue(float64(cum[len(cum)-1])))
	return lines
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	f *family
}

// With returns the child counter for the given label values (positional,
// matching the label names at registration).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() metric { return &Counter{} }).(*Counter)
}

// HistogramVec is a histogram family partitioned by label values, all
// children sharing one bucket layout.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() metric { return newHistogram(v.bounds) }).(*Histogram)
}

// DefBuckets is the default latency bucket layout, in seconds: 100µs to
// ~100s, roughly geometric, covering both in-process cache hits and
// saturated-queue tail latencies.
func DefBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 100,
	}
}

// SizeBuckets is the default payload-size bucket layout, in bytes: 256 B
// to 16 MiB, powers of four.
func SizeBuckets() []float64 {
	return []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216}
}
