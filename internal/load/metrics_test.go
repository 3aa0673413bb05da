package load

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func TestSeriesLabels(t *testing.T) {
	name, labels := seriesLabels(`mfbc_http_requests_total{code="2xx",route="query"}`)
	if name != "mfbc_http_requests_total" || labels["code"] != "2xx" || labels["route"] != "query" {
		t.Fatalf("parsed %q %v", name, labels)
	}
	name, labels = seriesLabels("mfbc_queries_total")
	if name != "mfbc_queries_total" || labels != nil {
		t.Fatalf("unlabeled series parsed %q %v", name, labels)
	}
}

// TestServerSideQuantiles pins the bucket-edge quantile math on a
// synthetic delta: 90 requests in the ≤0.01 s bucket, 10 more in ≤0.1 s.
func TestServerSideQuantiles(t *testing.T) {
	d := obs.Samples{
		`mfbc_http_requests_total{code="2xx",route="query"}`:                  90.0,
		`mfbc_http_requests_total{code="2xx",route="mutate"}`:                 10.0,
		`mfbc_http_requests_total{code="2xx",route="graphs"}`:                 5.0, // not harness-driven
		`mfbc_http_request_duration_seconds_bucket{le="0.01",route="query"}`:  90.0,
		`mfbc_http_request_duration_seconds_bucket{le="0.1",route="query"}`:   90.0,
		`mfbc_http_request_duration_seconds_bucket{le="+Inf",route="query"}`:  90.0,
		`mfbc_http_request_duration_seconds_bucket{le="0.01",route="mutate"}`: 0.0,
		`mfbc_http_request_duration_seconds_bucket{le="0.1",route="mutate"}`:  10.0,
		`mfbc_http_request_duration_seconds_bucket{le="+Inf",route="mutate"}`: 10.0,
	}
	ss := serverSide(d)
	if ss.Requests != 100 {
		t.Fatalf("requests = %d, want 100 (graphs route excluded)", ss.Requests)
	}
	// p50 rank 50 lands in the 0.01 s bucket; p95 rank 95 and p99 rank 99
	// land in the 0.1 s bucket.
	if ss.P50MS != 10 || ss.P95MS != 100 || ss.P99MS != 100 || ss.Clipped {
		t.Fatalf("quantiles = %+v", ss)
	}

	// A quantile past the last finite edge clips and flags it.
	clip := obs.Samples{
		`mfbc_http_request_duration_seconds_bucket{le="0.01",route="query"}`: 1.0,
		`mfbc_http_request_duration_seconds_bucket{le="+Inf",route="query"}`: 2.0,
	}
	if ss := serverSide(clip); !ss.Clipped || ss.P99MS != 10 {
		t.Fatalf("clipped quantiles = %+v", ss)
	}

	if ss := serverSide(obs.Samples{}); ss.Requests != 0 || ss.P99MS != 0 {
		t.Fatalf("empty delta summary = %+v", ss)
	}
}

// TestRunCrossCheckInproc drives a real open-loop run and checks the
// client-observed and server-observed request counts agree, and that the
// run carries the server-side summary and the counter deltas.
func TestRunCrossCheckInproc(t *testing.T) {
	c, graphs := inprocClient(t, server.Config{Workers: 1, CacheSize: 64})
	defer c.Close()
	res, err := RunSweep(c, SweepConfig{
		Cohorts: []CohortSpec{
			{Name: "readers", Kind: "topk", Weight: 3},
			{Name: "writers", Kind: "mutate", Weight: 1},
		},
		Graphs:       graphs,
		Rates:        []float64{150},
		StepDuration: 300 * time.Millisecond,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := res.Points[0].Run
	if run.Total.Requests == 0 || run.Total.Errors != 0 {
		t.Fatalf("run total = %+v", run.Total)
	}
	ss := run.Server
	if ss.Requests != int64(run.Total.Requests) {
		t.Fatalf("server counted %d requests, client observed %d", ss.Requests, run.Total.Requests)
	}
	if err := run.CrossCheck(); err != nil {
		t.Fatal(err)
	}
	if ss.P99MS <= 0 {
		t.Fatalf("server-side p99 = %g, want > 0", ss.P99MS)
	}

	if run.Metrics["mfbc_query_cache_hits_total"] == 0 || run.Metrics["mfbc_ingest_group_commits_total"] == 0 {
		t.Fatalf("run carries no /metrics counter deltas: %v", run.Metrics)
	}
}

// TestCrossCheckMismatch: a fabricated disagreement must surface.
func TestCrossCheckMismatch(t *testing.T) {
	var rec Recorder
	for i := 0; i < 5; i++ {
		rec.Observe(Sample{Cohort: "c", Latency: time.Millisecond, OK: true})
	}
	metrics := obs.Samples{`mfbc_http_requests_total{code="2xx",route="query"}`: 3.0}
	r := &RunResult{Total: rec.Total(time.Second), Server: serverSide(metrics)}
	err := r.CrossCheck()
	if err == nil || !strings.Contains(err.Error(), "cross-check failed") {
		t.Fatalf("cross-check err = %v", err)
	}
	metrics[`mfbc_http_requests_total{code="2xx",route="mutate"}`] = 2.0
	r.Server = serverSide(metrics)
	if err := r.CrossCheck(); err != nil {
		t.Fatalf("agreeing counts must pass: %v", err)
	}
}
