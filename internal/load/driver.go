package load

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// RunResult is the measured outcome of one open-loop run.
type RunResult struct {
	// Offered is the intended arrival rate in requests/second.
	Offered float64 `json:"offered_rps"`
	// Elapsed is wall time from first dispatch to last completion.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Total aggregates every request (Cohort "all"); Cohorts splits by
	// cohort.
	Total   CohortSummary   `json:"total"`
	Cohorts []CohortSummary `json:"cohorts"`
	// Metrics is the service's /metrics delta across the run (scrape after
	// − scrape before), series name → delta: the cache, coalescing,
	// warm-seed and ingest counters are read straight from it. Server is
	// the request count and latency percentiles derived from its route
	// histograms, the figure CrossCheck holds against Total.
	Metrics obs.Samples   `json:"metrics"`
	Server  ServerSummary `json:"server"`
}

// RunOpenLoop fires a pre-generated trace at its scheduled arrival times:
// dispatch does not wait for earlier responses, so offered load is
// independent of server speed (the defining open-loop property — a
// saturated server visibly falls behind instead of silently slowing the
// generator). maxInflight bounds concurrently outstanding requests to
// protect file descriptors; when the bound binds, arrivals queue and
// their measured latency still counts from the scheduled time, so
// saturation shows up as latency rather than being silently omitted
// (no coordinated omission).
func RunOpenLoop(c *Client, trace []Request, offered float64, maxInflight int) (*RunResult, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("load: empty trace")
	}
	if maxInflight <= 0 {
		maxInflight = 64
	}
	before, err := c.Metrics()
	if err != nil {
		return nil, fmt.Errorf("pre-run scrape: %w", err)
	}

	var rec Recorder
	start := time.Now()
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	for i := range trace {
		req := &trace[i]
		if d := req.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := c.Do(req)
			// Latency from the scheduled arrival, not the (possibly
			// semaphore-delayed) dispatch.
			lat := time.Since(start) - req.At
			rec.Observe(Sample{
				Cohort: req.Cohort, Latency: lat, OK: out.OK(),
				Op: req.Op, QueueWaitMS: out.QueueWaitMS,
			})
			<-sem
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := c.Metrics()
	if err != nil {
		return nil, fmt.Errorf("post-run scrape: %w", err)
	}

	metrics := after.Delta(before)
	return &RunResult{
		Offered: offered,
		Elapsed: elapsed,
		Total:   rec.Total(elapsed),
		Cohorts: rec.Summaries(elapsed),
		Metrics: metrics,
		Server:  serverSide(metrics),
	}, nil
}
