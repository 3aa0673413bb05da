package load

import (
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestRecorderPercentiles feeds a known latency distribution (1..100 ms,
// one sample each) and checks the nearest-rank percentiles exactly.
func TestRecorderPercentiles(t *testing.T) {
	var rec Recorder
	for i := 1; i <= 100; i++ {
		rec.Observe(Sample{
			Cohort:  "c",
			Latency: time.Duration(i) * time.Millisecond,
			OK:      i%10 != 0, // 10 errors
		})
	}
	total := rec.Total(2 * time.Second)
	if total.Requests != 100 || total.Errors != 10 {
		t.Fatalf("total = %+v", total)
	}
	const eps = 1e-9
	for _, tc := range []struct{ got, want float64 }{
		{total.Lat.P50MS, 50}, {total.Lat.P95MS, 95},
		{total.Lat.P99MS, 99}, {total.Lat.MaxMS, 100},
		{total.RPS, 50}, {total.GoodputRPS, 45},
	} {
		if math.Abs(tc.got-tc.want) > eps {
			t.Fatalf("percentile/rate mismatch: got %g want %g (total %+v)", tc.got, tc.want, total)
		}
	}

	sums := rec.Summaries(2 * time.Second)
	if len(sums) != 1 || sums[0].Cohort != "c" || sums[0].Requests != 100 {
		t.Fatalf("summaries = %+v", sums)
	}
}

func TestRecorderEmpty(t *testing.T) {
	var rec Recorder
	if got := rec.Total(time.Second); got.Requests != 0 || got.Lat.MaxMS > 0 {
		t.Fatalf("empty total = %+v", got)
	}
	if sums := rec.Summaries(time.Second); len(sums) != 0 {
		t.Fatalf("empty summaries = %+v", sums)
	}
}

// fakeService is a synthetic service with a hard capacity: `slots`
// concurrent requests, each taking `service` of wall time. Its saturation
// throughput is slots/service, known analytically — the ground truth the
// sweep's knee detector is tested against. It counts what it serves on
// the real route counter and exposes it at /metrics, as the harness's one
// client expects of any service.
type fakeService struct {
	slots   chan struct{}
	service time.Duration
	reg     *obs.Registry
	served  *obs.Counter
}

func newFakeService(slots int, service time.Duration) *fakeService {
	reg := obs.NewRegistry()
	return &fakeService{
		slots: make(chan struct{}, slots), service: service, reg: reg,
		served: reg.CounterVec("mfbc_http_requests_total", "Requests.", "route", "code").With("query", "2xx"),
	}
}

func (f *fakeService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/metrics" {
		f.reg.Handler().ServeHTTP(w, r)
		return
	}
	f.slots <- struct{}{}
	time.Sleep(f.service)
	<-f.slots
	f.served.Inc()
}

// TestSweepFindsKnee sweeps a fake service whose capacity is known
// (4 slots × 5ms service = 800 rps) and checks the knee lands below
// capacity and that overload is flagged saturated.
func TestSweepFindsKnee(t *testing.T) {
	c := NewHandlerClient(newFakeService(4, 5*time.Millisecond))
	res, err := RunSweep(c, SweepConfig{
		Cohorts:      []CohortSpec{{Name: "readers", Kind: "topk"}},
		Graphs:       testGraphs(t),
		Rates:        []float64{100, 200, 3200},
		StepDuration: 500 * time.Millisecond,
		MaxInflight:  64,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.KneeFound {
		t.Fatalf("no knee found: %+v", res.Points)
	}
	if res.KneeIndex != 1 || math.Abs(res.KneeRPS-200) > 1e-9 {
		t.Fatalf("knee at index %d rate %g, want index 1 rate 200", res.KneeIndex, res.KneeRPS)
	}
	if len(res.Points) != 3 || res.Points[0].Saturated || res.Points[1].Saturated || !res.Points[2].Saturated {
		t.Fatalf("saturation flags wrong: %+v", res.Points)
	}
	for _, p := range res.Points {
		if err := p.Run.CrossCheck(); err != nil {
			t.Fatalf("rate %g: %v", p.Offered, err)
		}
	}
}

// TestSweepAllSaturated: when even the lowest rate exceeds capacity the
// sweep must stop after one point and report no knee.
func TestSweepAllSaturated(t *testing.T) {
	c := NewHandlerClient(newFakeService(1, 50*time.Millisecond)) // capacity 20 rps
	res, err := RunSweep(c, SweepConfig{
		Cohorts:      []CohortSpec{{Name: "readers", Kind: "topk"}},
		Graphs:       testGraphs(t),
		Rates:        []float64{400, 800},
		StepDuration: 300 * time.Millisecond,
		MaxInflight:  16,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KneeFound || res.KneeIndex != -1 || len(res.Points) != 1 || !res.Points[0].Saturated {
		t.Fatalf("overloaded sweep = %+v", res)
	}
}

// inprocClient is a fresh in-process service with the test graphs seeded.
func inprocClient(t *testing.T, cfg server.Config) (*Client, []*SeededGraph) {
	t.Helper()
	c := NewHandlerClient(server.NewMux(server.New(cfg)))
	graphs := testGraphs(t)
	if err := c.Seed(graphs); err != nil {
		t.Fatal(err)
	}
	return c, graphs
}

// TestOpenLoopInProcessReplay fires a mixed-cohort open-loop trace at a
// real in-process server and checks every request lands (the trace only
// references registered graphs and real edges, so errors mean a harness
// bug), every cohort is summarized, and the /metrics delta shows all
// three traffic classes.
func TestOpenLoopInProcessReplay(t *testing.T) {
	c, graphs := inprocClient(t, server.Config{Workers: 1})
	defer c.Close()
	trace, err := GenerateTrace(TraceConfig{
		Cohorts: testCohorts(),
		Graphs:  graphs,
		Rate:    100,
		Horizon: 500 * time.Millisecond,
		Seed:    13,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOpenLoop(c, trace, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Requests != len(trace) {
		t.Fatalf("observed %d of %d requests", res.Total.Requests, len(trace))
	}
	if res.Total.Errors != 0 {
		t.Fatalf("open-loop replay produced %d errors", res.Total.Errors)
	}
	if len(res.Cohorts) != 3 {
		t.Fatalf("cohorts = %+v", res.Cohorts)
	}
	for _, c := range res.Cohorts {
		if c.Requests == 0 {
			t.Fatalf("cohort %q sent nothing", c.Cohort)
		}
		if !(c.Lat.P50MS > 0) || c.Lat.MaxMS < c.Lat.P99MS {
			t.Fatalf("cohort %q latency stats inconsistent: %+v", c.Cohort, c.Lat)
		}
	}
	d := res.Metrics
	if d["mfbc_queries_total"] == 0 || d["mfbc_mutations_total"] == 0 {
		t.Fatalf("server saw no traffic: queries %v, mutations %v", d["mfbc_queries_total"], d["mfbc_mutations_total"])
	}
	// Repeat top-k reads on a graph version must hit the cache.
	if d["mfbc_query_cache_hits_total"] == 0 {
		t.Fatal("no cache hits across the run")
	}
}
