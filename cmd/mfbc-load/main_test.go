package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/load"
)

func TestParsers(t *testing.T) {
	graphs, err := parseGraphs("a=grid:4x5x3,b=uniform:30x90,c=rmat:5x4", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 3 || graphs[0].Spec.Rows != 4 || graphs[0].Spec.MaxWeight != 3 || graphs[1].Spec.N != 30 || graphs[2].Spec.Scale != 5 {
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
// find a knee, and emit a sweep that parses back into internal/load's
// own types.
func TestQuickSweepEmitsJSON(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "sweep.json")
	cfg, err := parseFlags([]string{"-quick", "-json", jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	// Headroom: the sweep stops at the first saturated step, so faster
	// machines walk further up instead of finishing without a knee. A
	// 2-vCPU box sustains 29160 req/s whenever the lowest step's p99 (the
	// blow-up baseline) comes out noisy, so one more step is needed there.
	cfg.rates += ",3240,9720,29160,87480"

	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "knee: ") {
		t.Fatalf("quick sweep found no knee:\n%s", out.String())
	}

	res := readSweep(t, jsonPath)
	if len(res.Points) == 0 {
		t.Fatal("no rate steps written")
	}
	cohortRows := map[string]int{}
	saturated := 0
	var cacheHits, ingestCommits float64
	for _, p := range res.Points {
		for _, sum := range append([]load.CohortSummary{p.Run.Total}, p.Run.Cohorts...) {
			if sum.Requests == 0 || !(sum.RPS > 0) {
				t.Fatalf("rate %g: summary carries no traffic: %+v", p.Offered, sum)
			}
			if lat := sum.Lat; !(lat.P50MS > 0) || lat.P99MS < lat.P50MS || lat.MaxMS < lat.P99MS {
				t.Fatalf("rate %g: latency percentiles inconsistent: %+v", p.Offered, sum)
			}
			cohortRows[sum.Cohort]++
		}
		// The server-counter columns are the /metrics delta of each step.
		cacheHits += p.Run.Metrics["mfbc_query_cache_hits_total"]
		ingestCommits += p.Run.Metrics["mfbc_ingest_group_commits_total"]
		if p.Saturated {
			saturated++
		}
	}
	for _, want := range []string{"all", "readers", "dashboards", "writers"} {
		if cohortRows[want] == 0 {
			t.Fatalf("no rows for cohort %q (have %v)", want, cohortRows)
		}
	}
	if !res.KneeFound || res.KneeIndex < 0 || res.KneeIndex >= len(res.Points)-1 {
		t.Fatalf("knee not bracketed: index %d of %d steps, found %v", res.KneeIndex, len(res.Points), res.KneeFound)
	}
	if knee := res.Points[res.KneeIndex]; knee.Saturated || knee.Offered != res.KneeRPS {
		t.Fatalf("knee step mislabeled: offered %g saturated %v, knee_rps %g", knee.Offered, knee.Saturated, res.KneeRPS)
	}
	if saturated == 0 {
		t.Fatal("sweep never saturated despite headroom rates")
	}
	if cacheHits == 0 || ingestCommits == 0 {
		t.Fatalf("cache-hit / ingest-commit deltas = %g / %g, want both non-zero", cacheHits, ingestCommits)
	}
}

func readSweep(t *testing.T, path string) *load.SweepResult {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res := new(load.SweepResult)
	if err := json.Unmarshal(raw, res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIngestSweep drives a write-heavy sweep: an explicit mutate-heavy
// cohort mix against the in-process server, whose group commits land in
// the emitted /metrics deltas, and the flags that configure its write queue.
func TestIngestSweep(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "pts.json")
	cfg, err := parseFlags([]string{
		"-cohorts", "writers=mutate:2,readers=topk:3", "-ingest-max-depth", "64",
		"-graphs", "g=grid:6x6x5", "-rates", "30,60",
		"-step-duration", "400ms",
		"-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("ingest sweep failed: %v\n%s", err, out.String())
	}

	commits := 0.0
	for _, p := range readSweep(t, jsonPath).Points {
		commits += p.Run.Metrics["mfbc_ingest_group_commits_total"]
	}
	if commits == 0 {
		t.Fatalf("ingest sweep recorded no group commits:\n%s", out.String())
	}

	bad, err := parseFlags([]string{"-ingest-durability", "eventually"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(bad, &out); err == nil || !strings.Contains(err.Error(), "-ingest-durability") {
		t.Fatalf("bad durability must be rejected, got %v", err)
	}
	// The "ingest" preset went with its consumer; the grammar spells it.
	if _, err := parseCohorts("ingest", 1.5); err == nil {
		t.Fatal("the ingest cohort alias is gone and must not parse")
	}
}

// TestRemovedFlags: the open-loop sweep is the only driver, so the flags
// that selected or shaped the others are parse errors, as are the write
// path's earlier switches; what is left is 15 flags.
func TestRemovedFlags(t *testing.T) {
	for _, removed := range []string{
		"-mode=sweep", "-loop=closed", "-rate=50", "-schedule=constant", "-duration=1s",
		"-record=t.jsonl", "-replay=t.jsonl", "-window=1s",
		"-ingest", "-baseline=BENCH_load.json",
	} {
		if _, err := parseFlags([]string{removed}); err == nil {
			t.Errorf("removed flag %s still accepted", removed)
		}
	}
	if _, err := parseFlags([]string{"-bogus"}); err == nil {
		t.Error("unknown flag must be rejected")
	}
	fs := flag.NewFlagSet("mfbc-load", flag.ContinueOnError)
	registerFlags(fs, new(cliConfig))
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 15 {
		t.Errorf("mfbc-load has %d flags, want 15", n)
	}
}

// TestTraceOutAndServerSummary pins the observability wiring of the CLI:
// -trace-out streams the embedded server's request traces to JSONL, the
// sweep report carries the server-side p99 from the /metrics delta, and
// the emitted sweep carries the server-observed request count and
// percentiles.
func TestTraceOutAndServerSummary(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	jsonPath := filepath.Join(dir, "sweep.json")
	cfg, err := parseFlags([]string{
		"-rates", "100", "-step-duration", "300ms",
		"-graphs", "g=grid:6x6x5", "-trace-out", tracePath, "-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "srv99ms") {
		t.Fatalf("sweep output missing the server-side p99 column:\n%s", out.String())
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

	step := readSweep(t, jsonPath).Points[0].Run
	if step.Total.Cohort != "all" || step.Server.Requests == 0 || step.Server.Requests != int64(step.Total.Requests) {
		t.Fatalf("server summary vs client total: %+v vs %+v", step.Server, step.Total)
	}
	if !(step.Server.P99MS > 0) || step.Server.P50MS > step.Server.P99MS {
		t.Fatalf("server percentiles inconsistent: %+v", step.Server)
	}

	// -trace-out cannot instrument a remote server.
	cfg.addr = "http://127.0.0.1:1"
	if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "-trace-out") {
		t.Fatalf("live-server -trace-out must be rejected, got %v", err)
	}
}
