package core

import (
	"context"

	"repro/internal/obs"
)

// recordRegionSpan attaches one finished "machine.region" span (with a
// child span per attributed phase) to the trace carried by ctx, pairing
// the region's modeled α-β-γ cost with its measured wall-clock. It is
// post-hoc by design: core never reads a wall clock itself — the machine
// layer measured the durations, obs lays the spans out — so the
// deterministic core stays free of time sources and tracing costs one nil
// check when disabled.
func recordRegionSpan(ctx context.Context, region string, procs int, out *regionOutcome) {
	parent := obs.SpanFromContext(ctx)
	if parent == nil {
		return
	}
	st := out.stats
	span := parent.AddCompleted("machine.region", st.Wall, map[string]any{
		"region":       region,
		"procs":        procs,
		"bytes":        st.MaxCost.Bytes,
		"msgs":         st.MaxCost.Msgs,
		"flops":        st.MaxCost.Flops,
		"model_sec":    st.ModelSec,
		"comm_sec":     st.CommSec,
		"wall_ms":      float64(st.Wall.Microseconds()) / 1e3,
		"products":     out.products.Load(),
		"screened_out": out.screened.Load(),
	})
	for _, ph := range st.Phases {
		span.AddCompleted("phase."+ph.Name, ph.Wall, map[string]any{
			"bytes":     ph.MaxCost.Bytes,
			"msgs":      ph.MaxCost.Msgs,
			"flops":     ph.MaxCost.Flops,
			"model_sec": ph.ModelSec,
			"comm_sec":  ph.CommSec,
			"wall_ms":   float64(ph.Wall.Microseconds()) / 1e3,
		})
	}
}
