package main

import (
	"fmt"
)

// vsBaseline is the workload's paired comparison, > 1 when the system
// under test wins:
//   - seq-rmat, dist-rmat: median over iterations of CombBLAS-style time ÷
//     MFBC time, both taken in the same iteration (the paper's claim);
//   - stream-road: mean from-scratch recompute ÷ mean Apply over the whole
//     script (what the engine saves a caller per update; a mean, because
//     the script mixes cheap incremental and costly full applies);
//   - serve-mixed: median over the reader's think-slot bursts of calib-http
//     round trip ÷ hit round trip, lower quartiles (how close a cached
//     read comes to a handler that does nothing).
func vsBaseline(workload string, d *runData) float64 {
	switch workload {
	case "stream-road":
		return mean(d.base) / mean(d.op)
	case "serve-mixed":
		return median(d.series["burst_ratio"])
	}
	return median(ratios(d.base, d.op))
}

// calibratedOps rescales the op times of one class ("" = all) by the
// calibrator section that ran in the same iteration.
func calibratedOps(d *runData, class string, ref float64) []float64 {
	out := make([]float64, 0, len(d.op))
	for i, t := range d.op {
		if class == "" || d.class[i] == class {
			out = append(out, calibrated(t, d.calib[i], ref))
		}
	}
	return out
}

// primaryClass names the class of operations op_p50_ms is taken over. On
// stream-road the script alternates two classes an order of magnitude
// apart, so a median over both would sit in the gap between them; the
// metric follows the incremental path (class local) and the full-fallback
// path shows in vs_baseline and alloc_mb, which are means over both.
func primaryClass(workload string) string {
	if workload == "stream-road" {
		return classLocal
	}
	return ""
}

func endToEndMetrics(workload string, d *runData, setups []float64, ref float64) map[string]metric {
	l := ledger{}
	l.set("setup_s", calibrated(median(setups), median(d.calib), ref))
	l.set("op_p50_ms", median(calibratedOps(d, primaryClass(workload), ref))*1e3)
	l.set("vs_baseline", vsBaseline(workload, d))
	l.set("alloc_mb", float64(d.allocBytes)/float64(len(d.op))/1e6)
	return l
}

func untracedRun(workload string, seed int64, sz sizes, ref float64) (*result, error) {
	in, setups, err := setupTimed(workload, seed, sz)
	if err != nil {
		return nil, err
	}
	defer in.close()
	d, err := in.run(in.iterations(), nil, nil)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %s seed=%d iterations=%d calib_p50_ms=%.6f raw.op_p50_ms=%.6f raw.setup_s=%.6f\n",
		workload, seed, len(d.op), median(d.calib)*1e3, median(d.op)*1e3, median(setups))
	if d.strategy != "" {
		fmt.Printf("# strategy=%s\n", d.strategy)
	}
	return &result{
		Correct: d.failed == 0, Attempted: d.attempted, Failed: d.failed,
		Metrics: endToEndMetrics(workload, d, setups, ref),
	}, nil
}
