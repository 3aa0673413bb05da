package repro

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// trajectory is BENCH_trajectory.json: repeated runs of the repository
// benchmark (benchmarks/run.sh), one row per (commit, workload, seed), each
// the medians and interquartile ranges of the four end-to-end metrics over
// its runs.
type trajectory struct {
	About string          `json:"about"`
	Box   string          `json:"box"`
	Rows  []trajectoryRow `json:"rows"`
}

type trajectoryRow struct {
	Commit    string                  `json:"commit"`
	Workload  string                  `json:"workload"`
	Seed      int                     `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Runs      int                     `json:"runs"`
	Metrics   map[string]metricSpread `json:"metrics"`
	Correct   bool                    `json:"correct"`
	FailedOps int                     `json:"failed_ops"`
}

type metricSpread struct {
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
}

// TestTrajectorySchema validates BENCH_trajectory.json's shape and never
// its values, which depend on the box that measured them: every row names
// a commit, a workload BENCHMARK.json declares and a seed, carries every
// end-to-end metric BENCHMARK.json declares (a finite median, a
// non-negative IQR) and nothing else, was correct and failed no operation.
func TestTrajectorySchema(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}

	raw, err = os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var tr trajectory
	if err := dec.Decode(&tr); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	if tr.About == "" || tr.Box == "" || len(tr.Rows) == 0 {
		t.Fatal("BENCH_trajectory.json needs an about line, the box it was measured on, and rows")
	}
	type key struct {
		commit, workload string
		seed             int
	}
	seen := map[key]bool{}
	for x, r := range tr.Rows {
		k := key{r.Commit, r.Workload, r.Seed}
		switch {
		case r.Commit == "":
			t.Errorf("row %d names no commit", x)
		case !workloads[r.Workload]:
			t.Errorf("row %d: workload %q is not one BENCHMARK.json declares", x, r.Workload)
		case r.Seed < 1 || r.Seconds < 1 || r.Runs < 1:
			t.Errorf("row %d: seed %d, %d s, %d runs", x, r.Seed, r.Seconds, r.Runs)
		case !r.Correct || r.FailedOps != 0:
			t.Errorf("row %d: correct=%v with %d failed ops", x, r.Correct, r.FailedOps)
		case seen[k]:
			t.Errorf("row %d repeats %+v", x, k)
		case len(r.Metrics) != len(spec.EndToEnd):
			t.Errorf("row %d carries %d metrics, BENCHMARK.json declares %d", x, len(r.Metrics), len(spec.EndToEnd))
		}
		seen[k] = true
		for _, m := range spec.EndToEnd {
			v, ok := r.Metrics[m.Name]
			if !ok || math.IsNaN(v.Median) || math.IsInf(v.Median, 0) || !(v.IQR >= 0) || math.IsInf(v.IQR, 0) {
				t.Errorf("row %d: metric %s = %+v (present %v)", x, m.Name, v, ok)
			}
		}
	}
}
