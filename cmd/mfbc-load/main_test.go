package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

func TestParsers(t *testing.T) {
	graphs, err := parseGraphs("a=grid:4x5x3,b=uniform:30x90,c=rmat:5x4", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 3 || graphs[0].N() != 20 || graphs[1].N() != 30 {
		t.Fatalf("graphs = %+v", graphs)
	}
	for _, bad := range []string{"", "noeq", "g=grid:4", "g=torus:4x4", "g=grid:axb"} {
		if _, err := parseGraphs(bad, 1); err == nil {
			t.Fatalf("-graphs %q must be rejected", bad)
		}
	}

	cohorts, err := parseCohorts("r=topk:4,w=mutate:1", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cohorts) != 2 || cohorts[0].Name != "r" || cohorts[1].Kind != "mutate" {
		t.Fatalf("cohorts = %+v", cohorts)
	}
	def, err := parseCohorts("default", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 3 {
		t.Fatalf("default cohorts = %+v", def)
	}
	for _, bad := range []string{"", "noeq", "x=topk:abc"} {
		if _, err := parseCohorts(bad, 1.5); err == nil {
			t.Fatalf("-cohorts %q must be rejected", bad)
		}
	}

	rates, err := parseRates("10, 20,40")
	if err != nil || len(rates) != 3 {
		t.Fatalf("rates = %v, %v", rates, err)
	}
	if _, err := parseRates("10,x"); err == nil {
		t.Fatal("bad -rates must be rejected")
	}
}

// TestQuickSweepEmitsJSON drives the CI entry point end to end: the quick
// preset (extended with headroom rates so even a fast machine saturates)
// must complete, report per-cohort throughput and latency percentiles,
// find a knee, and emit parseable bench points in the mfbc-bench schema.
func TestQuickSweepEmitsJSON(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "points.json")
	cfg, err := parseFlags([]string{"-quick", "-json", jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	// Headroom: the sweep stops at the first saturated step, so faster
	// machines walk further up instead of finishing without a knee.
	cfg.rates += ",3240,9720,29160"

	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "knee: ") {
		t.Fatalf("quick sweep found no knee:\n%s", out.String())
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var points []bench.Point
	if err := json.Unmarshal(raw, &points); err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no bench points written")
	}
	cohortRows := map[string]int{}
	kneeRows, saturatedAgg := 0, 0
	for _, p := range points {
		if p.Experiment != "load-sweep" || p.Engine != "server" {
			t.Fatalf("point mislabeled: %+v", p)
		}
		if p.Requests == 0 || !(p.AchievedRPS > 0) {
			t.Fatalf("point carries no traffic: %+v", p)
		}
		if !(p.P50MS > 0) || p.P99MS < p.P50MS || p.MaxMS < p.P99MS {
			t.Fatalf("latency percentiles inconsistent: %+v", p)
		}
		cohortRows[p.Cohort]++
		if p.Knee {
			kneeRows++
		}
		if p.Cohort == "all" && p.Saturated {
			saturatedAgg++
		}
	}
	for _, want := range []string{"all", "readers", "dashboards", "writers"} {
		if cohortRows[want] == 0 {
			t.Fatalf("no rows for cohort %q (have %v)", want, cohortRows)
		}
	}
	if kneeRows != 1 {
		t.Fatalf("knee rows = %d, want exactly 1", kneeRows)
	}
	if saturatedAgg == 0 {
		t.Fatal("sweep never saturated despite headroom rates")
	}
}

// TestIngestSweep drives the write-heavy sweep entry point: the "ingest"
// cohort alias against the in-process server, whose group commits land in
// the bench points, and the flags that configure its write queue.
func TestIngestSweep(t *testing.T) {
	cohorts, err := parseCohorts("ingest", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cohorts) != 2 || cohorts[1].Kind != "mutate" {
		t.Fatalf("ingest cohorts = %+v", cohorts)
	}

	jsonPath := filepath.Join(t.TempDir(), "pts.json")
	cfg, err := parseFlags([]string{
		"-mode", "sweep", "-cohorts", "ingest", "-ingest-max-depth", "64",
		"-graphs", "g=grid:6x6x5", "-rates", "30,60",
		"-step-duration", "400ms", "-window", "200ms",
		"-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("ingest sweep failed: %v\n%s", err, out.String())
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var points []bench.Point
	if err := json.Unmarshal(raw, &points); err != nil {
		t.Fatal(err)
	}
	commits := int64(0)
	for _, p := range points {
		if p.Cohort == "all" {
			commits += p.IngestCommits
		}
	}
	if commits == 0 {
		t.Fatalf("ingest sweep recorded no group commits:\n%s", string(raw))
	}

	bad, err := parseFlags([]string{"-ingest-durability", "eventually"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(bad, &out); err == nil || !strings.Contains(err.Error(), "-ingest-durability") {
		t.Fatalf("bad durability must be rejected, got %v", err)
	}
	// The queue is the only write path and the sync knee it was gated
	// against is gone: neither the switch nor the gate is a flag any more.
	for _, flag := range []string{"-ingest", "-baseline=BENCH_load.json"} {
		if _, err := parseFlags([]string{flag}); err == nil {
			t.Fatalf("removed flag %s still accepted", flag)
		}
	}
}

// TestRecordReplay pins the CLI's record/replay loop: an open-loop run
// recorded to JSONL and replayed must observe exactly the same request
// count (the trace is the workload; the driver adds nothing).
func TestRecordReplay(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	jsonA := filepath.Join(dir, "a.json")
	jsonB := filepath.Join(dir, "b.json")

	base := cliConfig{
		mode: "run", loop: "open", rate: 80, schedule: "constant",
		duration: 400 * time.Millisecond, window: 200 * time.Millisecond,
		inflight: 16, cohorts: "readers=topk:3,writers=mutate:1", zipf: 1.5,
		graphs: "g=grid:6x6x5", seed: 5, workers: 1, cache: 64,
	}

	rec := base
	rec.record, rec.jsonPath = tracePath, jsonA
	var out bytes.Buffer
	if err := run(rec, &out); err != nil {
		t.Fatal(err)
	}

	rep := base
	rep.replay, rep.jsonPath = tracePath, jsonB
	if err := run(rep, &out); err != nil {
		t.Fatal(err)
	}

	readAgg := func(path string) bench.Point {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var points []bench.Point
		if err := json.Unmarshal(raw, &points); err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			if p.Cohort == "all" {
				if p.Experiment != "load-run" {
					t.Fatalf("run-mode point mislabeled: %+v", p)
				}
				return p
			}
		}
		t.Fatalf("no aggregate row in %s", path)
		return bench.Point{}
	}
	a, b := readAgg(jsonA), readAgg(jsonB)
	if a.Requests == 0 || a.Requests != b.Requests {
		t.Fatalf("recorded run saw %d requests, replay saw %d", a.Requests, b.Requests)
	}
	if a.ReqErrors != 0 || b.ReqErrors != 0 {
		t.Fatalf("errors: record %d, replay %d", a.ReqErrors, b.ReqErrors)
	}
}

// TestClosedLoopCLI smoke-tests the closed-loop path through the CLI.
func TestClosedLoopCLI(t *testing.T) {
	cfg := cliConfig{
		mode: "run", loop: "closed",
		duration: 300 * time.Millisecond, window: 100 * time.Millisecond,
		cohorts: "default", zipf: 1.5,
		graphs: "g=grid:6x6x5", seed: 3, workers: 1, cache: 64,
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"readers", "dashboards", "writers", "p99ms"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("closed-loop output missing %q:\n%s", want, out.String())
		}
	}
	if _, err := parseFlags([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag must be rejected")
	}
}

// TestTraceOutAndServerSummary pins the observability wiring of the CLI:
// -trace-out streams the embedded server's request traces to JSONL, the
// run report carries the server-side /metrics summary, and the bench
// points carry the server-observed request count and percentiles.
func TestTraceOutAndServerSummary(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	jsonPath := filepath.Join(dir, "points.json")
	cfg, err := parseFlags([]string{
		"-mode", "run", "-loop", "closed", "-duration", "300ms",
		"-graphs", "g=grid:6x6x5", "-trace-out", tracePath, "-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "server side: ") {
		t.Fatalf("run output missing server-side summary:\n%s", out.String())
	}
	if strings.Contains(out.String(), "WARNING") {
		t.Fatalf("client/server cross-check failed:\n%s", out.String())
	}

	traces, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"http.query"`, `"name":"server.query"`} {
		if !strings.Contains(string(traces), want) {
			t.Fatalf("trace JSONL missing %q", want)
		}
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var points []bench.Point
	if err := json.Unmarshal(raw, &points); err != nil {
		t.Fatal(err)
	}
	agg := points[0]
	if agg.Cohort != "all" || agg.ServerRequests == 0 || agg.ServerRequests != agg.Requests {
		t.Fatalf("aggregate point server fields: %+v", agg)
	}
	if !(agg.ServerP99MS > 0) || agg.ServerP50MS > agg.ServerP99MS {
		t.Fatalf("server percentiles inconsistent: %+v", agg)
	}

	// -trace-out cannot instrument a remote server.
	cfg.addr = "http://127.0.0.1:1"
	if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "-trace-out") {
		t.Fatalf("live-server -trace-out must be rejected, got %v", err)
	}
}
