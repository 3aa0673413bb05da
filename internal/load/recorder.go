package load

import (
	"sort"
	"sync"
	"time"
)

// Sample is one observed request outcome: which cohort sent it, how long
// from its scheduled arrival until its response, and whether the response
// was a success.
type Sample struct {
	Cohort  string
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
// aggregates them into per-cohort statistics. It keeps the raw samples (a
// load-harness run is at most a few hundred thousand requests), so
// percentiles are exact nearest-rank values rather than sketch
// approximations. The zero value is ready to use.
type Recorder struct {
	mu      sync.Mutex
	samples []Sample // guarded by mu
}

// Observe records one completed request. Safe for concurrent use.
func (r *Recorder) Observe(s Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
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
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
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
	Cohort     string       `json:"cohort"`
	Requests   int          `json:"requests"`
	Errors     int          `json:"errors"`
	RPS        float64      `json:"achieved_rps"`
	GoodputRPS float64      `json:"goodput_rps"`
	Lat        LatencyStats `json:"latency"`
	// MutateRequests counts the cohort's mutate samples; QueueWait is the
	// percentile spread of their server-reported write-ahead queue waits.
	MutateRequests int          `json:"mutate_requests"`
	QueueWait      LatencyStats `json:"queue_wait"`
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
