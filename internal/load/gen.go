package load

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/server"
)

// TraceConfig describes a workload: who sends (Cohorts), against what
// (Graphs), how fast (Rate, mean Poisson arrivals per second), for how
// long (Horizon), and from which seed. The same config generates the same
// trace, always.
type TraceConfig struct {
	Cohorts []CohortSpec
	Graphs  []*SeededGraph
	Rate    float64
	Horizon time.Duration
	Seed    int64
}

func (cfg *TraceConfig) validate() ([]CohortSpec, error) {
	if len(cfg.Cohorts) == 0 {
		return nil, fmt.Errorf("load: no cohorts")
	}
	if len(cfg.Graphs) == 0 {
		return nil, fmt.Errorf("load: no graphs")
	}
	if !(cfg.Rate > 0) { // also rejects NaN
		return nil, fmt.Errorf("load: rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("load: horizon must be positive, got %s", cfg.Horizon)
	}
	cohorts := make([]CohortSpec, len(cfg.Cohorts))
	for i, c := range cfg.Cohorts {
		filled, err := c.withDefaults()
		if err != nil {
			return nil, err
		}
		cohorts[i] = filled
	}
	return cohorts, nil
}

// synth deterministically turns (cohort, rng) draws into requests.
type synth struct {
	rng    *rand.Rand
	graphs []*SeededGraph
	zipf   map[string]*rand.Zipf // cohort name → graph-popularity sampler
}

func newSynth(seed int64, cohorts []CohortSpec, graphs []*SeededGraph) *synth {
	sy := &synth{
		rng:    rand.New(rand.NewSource(seed)),
		graphs: graphs,
		zipf:   make(map[string]*rand.Zipf, len(cohorts)),
	}
	for _, c := range cohorts {
		if c.Popularity == "zipf" && len(graphs) > 1 {
			// Zipf over graph ranks 0..len-1; v=1 gives P(k) ∝ 1/(1+k)^s.
			sy.zipf[c.Name] = rand.NewZipf(sy.rng, c.ZipfS, 1, uint64(len(graphs)-1))
		}
	}
	return sy
}

// pickGraph draws the addressed graph under the cohort's popularity
// distribution. Graph 0 is the hottest zipf key.
func (sy *synth) pickGraph(c *CohortSpec) *SeededGraph {
	if z, ok := sy.zipf[c.Name]; ok {
		return sy.graphs[int(z.Uint64())]
	}
	return sy.graphs[sy.rng.Intn(len(sy.graphs))]
}

// request draws one request for cohort c scheduled at offset at.
func (sy *synth) request(c *CohortSpec, at time.Duration) Request {
	sg := sy.pickGraph(c)
	req := Request{At: at, Cohort: c.Name, Graph: sg.Name}
	switch c.Kind {
	case "exact":
		req.Op = OpQuery
		req.Query = &server.QueryRequest{Graph: sg.Name, K: c.K, IncludeScores: true}
	case "topk":
		req.Op = OpQuery
		req.Query = &server.QueryRequest{Graph: sg.Name, K: c.K}
	case "sampled":
		req.Op = OpQuery
		req.Query = &server.QueryRequest{
			Graph:   sg.Name,
			K:       c.K,
			Samples: c.Samples,
			Seed:    1 + int64(sy.rng.Intn(c.SeedSpace)),
		}
	case "mutate":
		req.Op = OpMutate
		muts := make([]repro.Mutation, c.BatchSize)
		for i := range muts {
			e := sg.edges[sy.rng.Intn(len(sg.edges))]
			muts[i] = repro.Mutation{
				Op: repro.MutSetWeight, U: e.U, V: e.V,
				W: float64(1 + sy.rng.Intn(9)),
			}
		}
		req.Mutations = muts
	}
	return req
}

// pickCohort draws a cohort index proportionally to Weight.
func pickCohort(rng *rand.Rand, cum []float64) int {
	x := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

func weightCum(cohorts []CohortSpec) []float64 {
	cum := make([]float64, len(cohorts))
	total := 0.0
	for i, c := range cohorts {
		total += c.Weight
		cum[i] = total
	}
	return cum
}

// GenerateTrace builds the full open-loop request trace: homogeneous
// Poisson arrivals at cfg.Rate, cohorts chosen by weight, request bodies
// synthesized per cohort. Deterministic: identical configs and seeds yield
// identical traces.
func GenerateTrace(cfg TraceConfig) ([]Request, error) {
	cohorts, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	sy := newSynth(cfg.Seed, cohorts, cfg.Graphs)
	cum := weightCum(cohorts)

	var trace []Request
	t := time.Duration(0)
	for {
		t += time.Duration(sy.rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		if t >= cfg.Horizon {
			break
		}
		c := &cohorts[pickCohort(sy.rng, cum)]
		trace = append(trace, sy.request(c, t))
	}
	return trace, nil
}
