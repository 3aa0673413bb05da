// Package load is the deterministic workload generator and open-loop
// saturation sweep for the betweenness-centrality query service
// (internal/server): the load harness behind cmd/mfbc-load.
//
// A workload is a set of cohorts — read-heavy query users (exact and
// top-k), mutation-heavy PATCH streamers, and sampled-approximation
// dashboard pollers — each with its own key-popularity distribution
// (uniform or zipf) over a set of seeded graphs. Request generation is
// fully deterministic: the same TraceConfig and seed produce bit-identical
// traces.
//
// RunOpenLoop fires a pre-generated trace at its scheduled Poisson arrival
// times regardless of outstanding responses, so offered load does not
// adapt to server slowness — the property that makes saturation
// observable, and the one thing the repository benchmark's closed-loop
// service workload (benchmarks/) does not measure. RunSweep steps offered
// load across rates until goodput flattens or p99 blows out, and reports
// the knee.
//
// There is one way to reach the service: Client, an HTTP client. Its
// in-process form serves an http.Handler directly (no sockets), hermetic
// enough for CI, through the same encode/decode path as a live server.
// Server-side counters come from one place too: the /metrics delta
// bracketing each run.
package load

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/server"
)

// Op is the protocol action class of one generated request.
type Op string

const (
	OpQuery  Op = "query"  // POST /query
	OpMutate Op = "mutate" // PATCH /graphs/{name}
)

// Request is one generated protocol action. At is the scheduled offset
// from run start.
type Request struct {
	At        time.Duration
	Cohort    string
	Op        Op
	Graph     string
	Query     *server.QueryRequest
	Mutations []repro.Mutation
}

// CohortSpec describes one traffic cohort. Zero-valued knobs take the
// documented defaults (applied by withDefaults), so a spec can be as
// short as {Name: "readers", Kind: "topk"}.
type CohortSpec struct {
	Name string
	// Kind selects the request mix:
	//
	//	"exact"   exact query, full score vector (IncludeScores)
	//	"topk"    exact query, top-K ranking only
	//	"sampled" approximate query with a rotating sampling seed
	//	          (the dashboard-poller pattern)
	//	"mutate"  PATCH with a batch of set_weight mutations on real
	//	          edges of the addressed graph
	Kind string
	// Weight is this cohort's relative share of the traffic (normalized
	// over all cohorts; default 1).
	Weight float64
	// Popularity picks which seeded graph each request addresses:
	// "uniform" (default) or "zipf" with exponent ZipfS > 1 (default 1.5;
	// graph 0 is the hottest key).
	Popularity string
	ZipfS      float64
	// K is the ranking size of query cohorts (default 10). Samples is the
	// source budget of sampled cohorts (default 16). SeedSpace is how many
	// distinct sampling seeds a sampled cohort rotates through (default 4)
	// — it controls the cache-miss fraction, since each seed is a distinct
	// cache key per graph version. BatchSize is mutations per PATCH
	// (default 2).
	K         int
	Samples   int
	SeedSpace int
	BatchSize int
}

// withDefaults returns the spec with zero-valued knobs filled in, or an
// error for an invalid cohort.
func (c CohortSpec) withDefaults() (CohortSpec, error) {
	if c.Name == "" {
		c.Name = c.Kind
	}
	switch c.Kind {
	case "exact", "topk", "sampled", "mutate":
	default:
		return c, fmt.Errorf("load: cohort %q: unknown kind %q (want exact|topk|sampled|mutate)", c.Name, c.Kind)
	}
	if c.Weight < 0 {
		return c, fmt.Errorf("load: cohort %q: negative weight %v", c.Name, c.Weight)
	}
	if !(c.Weight > 0) { // zero (or NaN) means unset
		c.Weight = 1
	}
	switch c.Popularity {
	case "":
		c.Popularity = "uniform"
	case "uniform", "zipf":
	default:
		return c, fmt.Errorf("load: cohort %q: unknown popularity %q (want uniform|zipf)", c.Name, c.Popularity)
	}
	if !(c.ZipfS > 0) { // zero (or NaN) means unset
		c.ZipfS = 1.5
	}
	if c.Popularity == "zipf" && c.ZipfS <= 1 {
		return c, fmt.Errorf("load: cohort %q: zipf exponent must be > 1, got %v", c.Name, c.ZipfS)
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Samples <= 0 {
		c.Samples = 16
	}
	if c.SeedSpace <= 0 {
		c.SeedSpace = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 2
	}
	return c, nil
}

// DefaultCohorts is the canonical production mix: read-heavy top-k users,
// sampled-approximation dashboard pollers on a zipf-skewed key set, and a
// thin stream of mutation writers.
func DefaultCohorts() []CohortSpec {
	return []CohortSpec{
		{Name: "readers", Kind: "topk", Weight: 5},
		{Name: "dashboards", Kind: "sampled", Weight: 3, Popularity: "zipf"},
		{Name: "writers", Kind: "mutate", Weight: 1},
	}
}

// SeededGraph is one registry graph the workload addresses: its name, the
// spec it is registered from, and the edge list of the locally
// materialized graph. Because server.BuildGraph is deterministic in the
// spec, the generator's local copy has exactly the edges the server
// holds, so mutate cohorts can reweight real edges without ever drawing a
// rejected mutation.
type SeededGraph struct {
	Name string
	Spec server.GraphSpec

	edges []repro.Edge
}

// NewSeededGraph materializes spec locally and returns the workload-side
// descriptor. The server side registers the same spec via Client.Seed.
func NewSeededGraph(name string, spec server.GraphSpec) (*SeededGraph, error) {
	if name == "" {
		return nil, fmt.Errorf("load: empty graph name")
	}
	g, err := server.BuildGraph(spec)
	if err != nil {
		return nil, fmt.Errorf("load: graph %q: %w", name, err)
	}
	if g.M() == 0 {
		return nil, fmt.Errorf("load: graph %q has no edges", name)
	}
	return &SeededGraph{Name: name, Spec: spec, edges: g.Edges}, nil
}
