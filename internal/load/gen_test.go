package load

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
)

func testGraphs(t *testing.T) []*SeededGraph {
	t.Helper()
	hot, err := NewSeededGraph("hot", server.GraphSpec{Kind: "grid", Rows: 8, Cols: 8, MaxWeight: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewSeededGraph("warm", server.GraphSpec{Kind: "uniform", N: 48, M: 160, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return []*SeededGraph{hot, warm}
}

func testCohorts() []CohortSpec {
	return []CohortSpec{
		{Name: "readers", Kind: "topk", Weight: 4},
		{Name: "dashboards", Kind: "sampled", Weight: 2, Popularity: "zipf", SeedSpace: 3},
		{Name: "writers", Kind: "mutate", Weight: 1, BatchSize: 2},
	}
}

// TestGenerateTraceDeterminism is the reproducibility contract of the
// harness: identical configs and seeds yield bit-identical traces;
// different seeds do not.
func TestGenerateTraceDeterminism(t *testing.T) {
	cfg := TraceConfig{
		Cohorts: testCohorts(),
		Graphs:  testGraphs(t),
		Rate:    500,
		Horizon: 2 * time.Second,
		Seed:    42,
	}
	a, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}

	cfg.Seed = 43
	c, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}

	// ~500 rps over 2s: the Poisson count must land near 1000.
	if len(a) < 700 || len(a) > 1300 {
		t.Fatalf("trace length %d wildly off the offered 1000", len(a))
	}
	// Arrivals are sorted and inside the horizon; every cohort shows up.
	seen := map[string]int{}
	for i, r := range a {
		if i > 0 && r.At < a[i-1].At {
			t.Fatalf("arrival %d out of order", i)
		}
		if r.At < 0 || r.At >= cfg.Horizon {
			t.Fatalf("arrival %d outside horizon: %s", i, r.At)
		}
		seen[r.Cohort]++
	}
	for _, c := range testCohorts() {
		if seen[c.Name] == 0 {
			t.Fatalf("cohort %q generated no requests (%v)", c.Name, seen)
		}
	}
	// Weight 4:2:1 must be visible in the mix.
	if seen["readers"] <= seen["dashboards"] || seen["dashboards"] <= seen["writers"] {
		t.Fatalf("cohort weights not respected: %v", seen)
	}
}

// TestGenerateTraceMutationsAreValid pins the mutate-cohort contract:
// every generated mutation reweights an edge that really exists in the
// addressed graph, so a live server accepts whole traces without drawing
// rejected mutations.
func TestGenerateTraceMutationsAreValid(t *testing.T) {
	graphs := testGraphs(t)
	edges := make(map[string]map[[2]int32]bool)
	for _, sg := range graphs {
		set := make(map[[2]int32]bool, len(sg.edges))
		for _, e := range sg.edges {
			set[[2]int32{e.U, e.V}] = true
		}
		edges[sg.Name] = set
	}
	trace, err := GenerateTrace(TraceConfig{
		Cohorts: []CohortSpec{{Name: "writers", Kind: "mutate", BatchSize: 3}},
		Graphs:  graphs,
		Rate:    200,
		Horizon: time.Second,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trace {
		if r.Op != OpMutate || len(r.Mutations) != 3 {
			t.Fatalf("writer request malformed: %+v", r)
		}
		for _, m := range r.Mutations {
			if !edges[r.Graph][[2]int32{m.U, m.V}] {
				t.Fatalf("mutation targets non-edge (%d,%d) of %q", m.U, m.V, r.Graph)
			}
			if m.W < 1 || m.W > 9 {
				t.Fatalf("mutation weight %v outside [1,9]", m.W)
			}
		}
	}
}

// TestSchedules pins the one arrival schedule a trace has: homogeneous
// Poisson at Rate. The realized count tracks Rate × Horizon at either end
// of a sweep's range, and a rate that cannot pace arrivals is rejected.
func TestSchedules(t *testing.T) {
	cfg := TraceConfig{Cohorts: testCohorts(), Graphs: testGraphs(t), Horizon: 4 * time.Second, Seed: 3}
	for _, rate := range []float64{50, 800} {
		cfg.Rate = rate
		trace, err := GenerateTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := rate * cfg.Horizon.Seconds()
		// ±5σ of a Poisson count with mean `want`.
		if d := math.Abs(float64(len(trace)) - want); d > 5*math.Sqrt(want) {
			t.Fatalf("rate %g over %s: %d arrivals, want %g ± %g", rate, cfg.Horizon, len(trace), want, 5*math.Sqrt(want))
		}
	}
	for _, bad := range []float64{0, -10, math.NaN()} {
		cfg.Rate = bad
		if _, err := GenerateTrace(cfg); err == nil {
			t.Fatalf("rate %g must be rejected", bad)
		}
	}
}

func TestCohortValidation(t *testing.T) {
	for _, bad := range []CohortSpec{
		{Name: "x", Kind: "bogus"},
		{Name: "x", Kind: "topk", Weight: -1},
		{Name: "x", Kind: "topk", Popularity: "pareto"},
		{Name: "x", Kind: "topk", Popularity: "zipf", ZipfS: 0.5},
	} {
		if _, err := bad.withDefaults(); err == nil {
			t.Fatalf("cohort %+v must be rejected", bad)
		}
	}
	c, err := CohortSpec{Kind: "sampled"}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "sampled" || c.K != 10 || c.Samples != 16 || c.SeedSpace != 4 || c.Weight != 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}
