package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which
// is how the spread of a metric is judged.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// noiseRow is one (workload, metric) cell of NOISE.json.
type noiseRow struct {
	Workload  string    `json:"workload"`
	Metric    string    `json:"metric"`
	Unit      string    `json:"unit"`
	Values    []float64 `json:"values"`
	Median    float64   `json:"median"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
	RangeRel  float64   `json:"range_over_median"`
	IQRRel    float64   `json:"iqr_over_median"`
	Bound     float64   `json:"bound"`
	WithinTol bool      `json:"within_third_of_bound"`
}

// childRun is one cold-process run of this binary.
type childRun struct {
	res    result
	extras map[string]float64 // numeric key=value pairs of the "# ..." lines
	texts  map[string]string  // all key=value pairs of the "# ..." lines
}

func runChild(args ...string) (*childRun, error) {
	cmd := exec.Command(os.Args[0], args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	run := &childRun{extras: map[string]float64{}, texts: map[string]string{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.res); err != nil {
		return nil, fmt.Errorf("%s: last line is not the result object: %w", strings.Join(args, " "), err)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		for _, tok := range strings.Fields(line[2:]) {
			if k, v, ok := strings.Cut(tok, "="); ok {
				run.texts[k] = v
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					run.extras[k] = f
				}
			}
		}
	}
	return run, nil
}

// selfCheck runs every workload (or only the named one) n times from cold
// processes, seeds 1..n, and judges each end-to-end metric the way the
// driver does: the interquartile range of the n values over their median
// must stay within a third of the metric's bound (setup_s is reported but
// not judged). With recalibrate it records the calibrator reference next
// to the sources (calib_ref.json is embedded: rebuild to make it take
// effect); with write, the spreads (NOISE.json), the seed-1 untraced and
// traced results (RESULTS.json) and the seed-1 exact counters (golden.json).
func selfCheck(n, seconds int, only, specPath, dir string, write, recalibrate bool) error {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		return err
	}
	if (write || recalibrate) && only != "" {
		return fmt.Errorf("-write and -recalibrate record every workload; drop -workload")
	}
	var rows []noiseRow
	results := map[string]map[string]map[string]metric{} // workload → "untraced" | "traced" → metrics, seed 1
	golden := goldenFile{Seed: 1, Sizes: fmt.Sprint(sizesFor(seconds, false)), Workloads: map[string]goldenEntry{}}
	refs := map[string]float64{}
	ok := true
	for _, w := range spec.Workloads {
		if only != "" && only != w.Name {
			continue
		}
		values := map[string][]float64{}
		var calib []float64
		for seed := 1; seed <= n; seed++ {
			run, err := runChild("-workload", w.Name, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			if err != nil {
				return err
			}
			if !run.res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, run.res.Failed, run.res.Attempted)
			}
			for _, m := range spec.EndToEnd {
				got, ok := run.res.Metrics[m.Name]
				if !ok {
					return fmt.Errorf("%s seed %d: metric %s missing", w.Name, seed, m.Name)
				}
				values[m.Name] = append(values[m.Name], got.Value)
			}
			calib = append(calib, run.extras["calib_p50_ms"]/1e3)
			if seed == 1 {
				results[w.Name] = map[string]map[string]metric{"untraced": run.res.Metrics}
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w.Name, seed)
		}
		if write {
			run, err := runChild("-workload", w.Name, "-seed", "1", "-seconds", strconv.Itoa(seconds),
				"-trace", "1", "-out", filepath.Join(dir, "out"))
			if err != nil {
				return err
			}
			if !run.res.Correct {
				return fmt.Errorf("%s traced: %d of %d operations failed", w.Name, run.res.Failed, run.res.Attempted)
			}
			results[w.Name]["traced"] = run.res.Metrics
			golden.Workloads[w.Name] = goldenOf(run.res.Metrics, run.texts["strategy"])
		}
		refs[w.Name] = median(calib)
		for _, m := range spec.EndToEnd {
			v := values[m.Name]
			row := noiseRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Values: v, Bound: m.Bound,
				Median: median(v), Min: percentile(v, 0), Max: percentile(v, 1)}
			row.RangeRel = (row.Max - row.Min) / row.Median
			if n >= 2 {
				q1, q3 := quartiles(v)
				row.IQRRel = (q3 - q1) / row.Median
			}
			row.WithinTol = m.Name == "setup_s" || row.IQRRel <= m.Bound/3
			ok = ok && row.WithinTol
			rows = append(rows, row)
			fmt.Printf("%-12s %-12s median %12.4f %-6s min %12.4f max %12.4f range %6.2f%% iqr %6.2f%% bound %5.1f%% %s\n",
				w.Name, m.Name, row.Median, m.Unit, row.Min, row.Max, 100*row.RangeRel, 100*row.IQRRel, 100*m.Bound,
				map[bool]string{true: "ok", false: "TOO NOISY"}[row.WithinTol])
		}
	}
	if recalibrate {
		if err := writeJSON(filepath.Join(dir, "calib_ref.json"), refs); err != nil {
			return err
		}
	}
	if write {
		if err := writeJSON(filepath.Join(dir, "NOISE.json"), map[string]any{
			"runs_per_workload": n, "seeds": fmt.Sprintf("1..%d", n), "seconds": seconds,
			"rule": "iqr_over_median (Python statistics.quantiles, n=4) must be at most a third of the bound; setup_s is not judged",
			"rows": rows,
		}); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(dir, "RESULTS.json"), map[string]any{
			"seed": 1, "seconds": seconds, "results": results,
		}); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(dir, "golden.json"), golden); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("at least one end-to-end metric spreads by more than a third of its bound")
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
