package load

import (
	"fmt"
	"sort"
	"time"
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
	Offered   float64    `json:"offered_rps"`
	Saturated bool       `json:"saturated"`
	Run       *RunResult `json:"run"`
}

// SweepResult is the outcome of a saturation sweep. KneeIndex is the last
// consecutive unsaturated point from the bottom of the sweep (-1 when
// even the lowest rate saturates); KneeFound reports whether some higher
// rate actually saturated, i.e. whether the knee is bracketed rather than
// merely "the highest rate we tried". The JSON tags here and on
// RunResult, CohortSummary, LatencyStats and ServerSummary are the schema
// of mfbc-load's -json output: the knee step is points[knee_index] when
// knee_found.
type SweepResult struct {
	Points    []SweepPoint `json:"points"`
	KneeIndex int          `json:"knee_index"`
	KneeRPS   float64      `json:"knee_rps"`
	KneeFound bool         `json:"knee_found"`
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
