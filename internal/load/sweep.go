package load

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// SweepConfig drives a saturation sweep: the same workload mix offered at
// each rate in Rates (ascending), open loop, StepDuration per rate.
type SweepConfig struct {
	Cohorts []CohortSpec
	Graphs  []*SeededGraph
	// Rates are the offered rates (requests/second) to step through,
	// ascending.
	Rates        []float64
	StepDuration time.Duration
	MaxInflight  int
	Seed         int64
	// GoodputFrac and P99Blowup are the saturation thresholds: a point is
	// saturated when goodput falls below GoodputFrac·offered (default
	// 0.9) or its p99 exceeds P99Blowup× the lowest-rate baseline p99
	// (default 5).
	GoodputFrac float64
	P99Blowup   float64
}

// SweepPoint is one measured rate step.
type SweepPoint struct {
	Offered   float64
	Saturated bool
	Run       *RunResult
}

// SweepResult is the outcome of a saturation sweep. KneeIndex is the last
// consecutive unsaturated point from the bottom of the sweep (-1 when
// even the lowest rate saturates); KneeFound reports whether some higher
// rate actually saturated, i.e. whether the knee is bracketed rather than
// merely "the highest rate we tried".
type SweepResult struct {
	Points    []SweepPoint
	KneeIndex int
	KneeRPS   float64
	KneeFound bool
}

// RunSweep steps offered load up cfg.Rates against the service behind c.
// Each step generates a deterministic trace (seed varied per step,
// reproducibly) and fires it open loop. Sweeping is cumulative server state: caches
// stay warm and mutations accumulate across steps, as they would in
// production.
func RunSweep(c *Client, cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("load: sweep needs at least one rate")
	}
	if !sort.Float64sAreSorted(cfg.Rates) {
		return nil, fmt.Errorf("load: sweep rates must be ascending")
	}
	if cfg.StepDuration <= 0 {
		return nil, fmt.Errorf("load: sweep step duration must be positive")
	}
	goodFrac := cfg.GoodputFrac
	if !(goodFrac > 0) {
		goodFrac = 0.9
	}
	blowup := cfg.P99Blowup
	if !(blowup > 0) {
		blowup = 5
	}

	res := &SweepResult{KneeIndex: -1}
	baseP99 := 0.0
	for i, rate := range cfg.Rates {
		trace, err := GenerateTrace(TraceConfig{
			Cohorts: cfg.Cohorts,
			Graphs:  cfg.Graphs,
			Rate:    rate,
			Horizon: cfg.StepDuration,
			Seed:    cfg.Seed + int64(i)*101, // distinct but reproducible per step
		})
		if err != nil {
			return nil, err
		}
		if len(trace) == 0 {
			return nil, fmt.Errorf("load: rate %g over %s generated no arrivals", rate, cfg.StepDuration)
		}
		run, err := RunOpenLoop(c, trace, rate, cfg.MaxInflight)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			baseP99 = run.Total.Lat.P99MS
		}
		// Judge goodput against the rate the trace actually offered
		// (len/horizon), not the nominal target: short steps carry real
		// Poisson variance, and holding the generator to the nominal rate
		// would flag an unlucky draw as saturation.
		offeredActual := float64(len(trace)) / cfg.StepDuration.Seconds()
		saturated := run.Total.GoodputRPS < goodFrac*offeredActual ||
			(baseP99 > 0 && run.Total.Lat.P99MS > blowup*baseP99)
		res.Points = append(res.Points, SweepPoint{Offered: rate, Saturated: saturated, Run: run})
		if saturated {
			res.KneeFound = res.KneeIndex >= 0
			break // past the knee; higher rates only melt the server further
		}
		res.KneeIndex = i
		res.KneeRPS = rate
	}
	return res, nil
}

// graphsLabel summarizes the workload graph set for bench points: joined
// names plus total vertex and edge counts.
func graphsLabel(graphs []*SeededGraph) (label string, n, m int) {
	names := make([]string, 0, len(graphs))
	for _, sg := range graphs {
		names = append(names, sg.Name)
		n += sg.N()
		m += sg.M()
	}
	return strings.Join(names, "+"), n, m
}

// benchRow builds one bench.Point row of experiment "load-sweep". The
// server-side columns (counter deltas, request count, bucket-edge
// percentiles) come from the run's /metrics delta and only make sense
// run-wide, so per-cohort rows pass a nil run.
func benchRow(graphLabel string, n, m int, offered float64, sum CohortSummary, run *RunResult) bench.Point {
	pt := bench.Point{
		Experiment:  "load-sweep",
		Graph:       graphLabel,
		Engine:      "server",
		N:           n,
		M:           m,
		Cohort:      sum.Cohort,
		OfferedRPS:  offered,
		AchievedRPS: sum.RPS,
		GoodputRPS:  sum.GoodputRPS,
		P50MS:       sum.Lat.P50MS,
		P95MS:       sum.Lat.P95MS,
		P99MS:       sum.Lat.P99MS,
		MaxMS:       sum.Lat.MaxMS,
		Requests:    int64(sum.Requests),
		ReqErrors:   int64(sum.Errors),
	}
	if sum.MutateRequests > 0 {
		pt.QueueWaitP50MS = sum.QueueWait.P50MS
		pt.QueueWaitP95MS = sum.QueueWait.P95MS
		pt.QueueWaitP99MS = sum.QueueWait.P99MS
	}
	if run != nil {
		pt.WallSec = run.Elapsed.Seconds()
		count := func(series string) int64 { return int64(run.Metrics[series] + 0.5) }
		pt.CacheHits = count("mfbc_query_cache_hits_total")
		pt.Coalesced = count("mfbc_query_coalesced_total")
		for _, variant := range []string{"exact", "normalized", "distributed"} {
			pt.WarmSeeds += count(`mfbc_warm_seeds_total{variant="` + variant + `"}`)
		}
		pt.CacheEvictions = count("mfbc_cache_evictions_total")
		pt.IngestCommits = count("mfbc_ingest_group_commits_total")
		pt.IngestCoalesced = count("mfbc_ingest_coalesced_total")
		pt.IngestRejected = count("mfbc_ingest_rejected_total")
		ss := run.ServerSummary()
		pt.ServerRequests = ss.Requests
		pt.ServerP50MS = ss.P50MS
		pt.ServerP95MS = ss.P95MS
		pt.ServerP99MS = ss.P99MS
	}
	return pt
}

// BenchPoints converts a sweep into the mfbc-bench JSON point schema
// (BENCH_*.json) under experiment "load-sweep": per rate step, one
// aggregate row (Cohort "all", carrying the server-side columns) plus one
// row per cohort, with Saturated flagged per step and Knee: true on the
// aggregate row of the knee rate.
func (sr *SweepResult) BenchPoints(graphs []*SeededGraph) []bench.Point {
	label, n, m := graphsLabel(graphs)
	var points []bench.Point
	for i, p := range sr.Points {
		agg := benchRow(label, n, m, p.Offered, p.Run.Total, p.Run)
		agg.Saturated = p.Saturated
		agg.Knee = sr.KneeFound && i == sr.KneeIndex
		points = append(points, agg)
		for _, sum := range p.Run.Cohorts {
			row := benchRow(label, n, m, p.Offered, sum, nil)
			row.Saturated = p.Saturated
			points = append(points, row)
		}
	}
	return points
}
