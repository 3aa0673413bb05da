package load

import (
	"sort"
	"sync"
	"time"
)

// Sample is one observed request outcome: which cohort sent it, when it
// was scheduled (offset from run start), how long until its response, and
// whether the response was a success.
type Sample struct {
	Cohort  string
	Start   time.Duration
	Latency time.Duration
	OK      bool
	// Op distinguishes query from mutate samples; QueueWaitMS is the
	// server-reported time a mutate batch spent in the write-ahead queue
	// before its group commit started, so the sweep can separate queue
	// time from apply time.
	Op          Op
	QueueWaitMS float64
}

// Recorder collects samples from concurrent driver goroutines and
// aggregates them into per-cohort and per-window statistics. It keeps the
// raw samples (a load-harness run is at most a few hundred thousand
// requests), so percentiles are exact nearest-rank values rather than
// sketch approximations.
type Recorder struct {
	window time.Duration

	mu      sync.Mutex
	samples []Sample // guarded by mu
}

// NewRecorder creates a recorder that buckets window statistics into
// intervals of the given width (default 1s if nonpositive).
func NewRecorder(window time.Duration) *Recorder {
	if window <= 0 {
		window = time.Second
	}
	return &Recorder{window: window}
}

// Observe records one completed request. Safe for concurrent use.
func (r *Recorder) Observe(s Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
}

// Len reports how many samples have been observed.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

func (r *Recorder) snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// LatencyStats are nearest-rank percentiles in milliseconds.
type LatencyStats struct {
	P50MS float64
	P95MS float64
	P99MS float64
	MaxMS float64
}

// percentiles computes nearest-rank percentiles over lats (which it
// sorts in place). Zero-valued for an empty slice.
func percentiles(lats []time.Duration) LatencyStats {
	if len(lats) == 0 {
		return LatencyStats{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rank := func(q float64) float64 {
		idx := int(q*float64(len(lats))+0.999999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		return float64(lats[idx]) / float64(time.Millisecond)
	}
	return LatencyStats{
		P50MS: rank(0.50),
		P95MS: rank(0.95),
		P99MS: rank(0.99),
		MaxMS: float64(lats[len(lats)-1]) / float64(time.Millisecond),
	}
}

// CohortSummary aggregates one cohort (or the whole run, Cohort "all")
// over the full duration. Latency percentiles cover all completed
// requests; GoodputRPS counts only successes.
type CohortSummary struct {
	Cohort     string
	Requests   int
	Errors     int
	RPS        float64
	GoodputRPS float64
	Lat        LatencyStats
	// MutateRequests counts the cohort's mutate samples; QueueWait is the
	// percentile spread of their server-reported write-ahead queue waits.
	MutateRequests int
	QueueWait      LatencyStats
}

func summarize(cohort string, samples []Sample, elapsed time.Duration) CohortSummary {
	sum := CohortSummary{Cohort: cohort, Requests: len(samples)}
	lats := make([]time.Duration, 0, len(samples))
	var waits []time.Duration
	for _, s := range samples {
		if !s.OK {
			sum.Errors++
		}
		lats = append(lats, s.Latency)
		if s.Op == OpMutate {
			sum.MutateRequests++
			waits = append(waits, time.Duration(s.QueueWaitMS*float64(time.Millisecond)))
		}
	}
	sum.Lat = percentiles(lats)
	sum.QueueWait = percentiles(waits)
	if elapsed > 0 {
		secs := elapsed.Seconds()
		sum.RPS = float64(sum.Requests) / secs
		sum.GoodputRPS = float64(sum.Requests-sum.Errors) / secs
	}
	return sum
}

// Summaries returns one CohortSummary per cohort, sorted by name, over
// the run's elapsed wall time.
func (r *Recorder) Summaries(elapsed time.Duration) []CohortSummary {
	samples := r.snapshot()
	byCohort := make(map[string][]Sample)
	for _, s := range samples {
		byCohort[s.Cohort] = append(byCohort[s.Cohort], s)
	}
	names := make([]string, 0, len(byCohort))
	for name := range byCohort {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]CohortSummary, 0, len(names))
	for _, name := range names {
		out = append(out, summarize(name, byCohort[name], elapsed))
	}
	return out
}

// Total aggregates every sample into a single summary (Cohort "all").
func (r *Recorder) Total(elapsed time.Duration) CohortSummary {
	return summarize("all", r.snapshot(), elapsed)
}

// WindowStats is one (window, cohort) cell of the run timeline: requests
// scheduled in [Index·width, (Index+1)·width).
type WindowStats struct {
	Index    int
	Cohort   string
	Requests int
	Errors   int
	RPS      float64
	Lat      LatencyStats
}

type windowKey struct {
	index  int
	cohort string
}

// Windows buckets samples by scheduled start into the recorder's window
// width and returns per-(window, cohort) rows in timeline order.
func (r *Recorder) Windows() []WindowStats {
	samples := r.snapshot()
	byKey := make(map[windowKey][]Sample)
	for _, s := range samples {
		k := windowKey{index: int(s.Start / r.window), cohort: s.Cohort}
		byKey[k] = append(byKey[k], s)
	}
	keys := make([]windowKey, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].index != keys[j].index {
			return keys[i].index < keys[j].index
		}
		return keys[i].cohort < keys[j].cohort
	})
	out := make([]WindowStats, 0, len(keys))
	for _, k := range keys {
		sum := summarize(k.cohort, byKey[k], r.window)
		out = append(out, WindowStats{
			Index: k.index, Cohort: k.cohort,
			Requests: sum.Requests, Errors: sum.Errors,
			RPS: sum.RPS, Lat: sum.Lat,
		})
	}
	return out
}
