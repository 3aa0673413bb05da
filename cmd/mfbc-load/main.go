// Command mfbc-load is the production load harness for the BC query
// service: a deterministic workload generator and load driver with
// saturation analysis (see internal/load).
//
// Workloads mix cohorts — read-heavy top-k users, exact-query users,
// sampled-approximation dashboard pollers, and mutation-heavy PATCH
// streamers — each with its own key-popularity distribution over a set of
// seeded graphs. Traces are deterministic in -seed and can be recorded to
// and replayed from JSONL.
//
// Two modes:
//
//	-mode run     one measured run: open loop (-loop open, Poisson
//	              arrivals at -rate shaped by -schedule) or closed loop
//	              (-loop closed, per-cohort client populations)
//	-mode sweep   saturation sweep: step offered load through -rates,
//	              stop past the knee, report it
//
// The target is a live server (-addr http://host:8080) or, with -addr
// empty, an in-process server — no sockets — suitable for CI.
//
// Examples:
//
//	mfbc-load -mode run -loop closed -duration 5s
//	mfbc-load -addr http://localhost:8080 -mode run -rate 200 -schedule diurnal:0.5@30s
//	mfbc-load -mode sweep -rates 50,100,200,400,800 -step-duration 5s -json BENCH_load.json
//	mfbc-load -quick -json BENCH_load.json
//	mfbc-load -mode sweep -cohorts ingest -ingest-durability enqueued -ingest-max-depth 64
//
// -json emits the same point schema as mfbc-bench -json (BENCH_*.json),
// so load results live next to the modeled-performance baselines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfbc-load:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mfbc-load:", err)
		os.Exit(1)
	}
}

// cliConfig is the parsed flag set.
type cliConfig struct {
	addr     string
	mode     string
	loop     string
	rate     float64
	schedule string
	duration time.Duration
	window   time.Duration
	inflight int
	rates    string
	stepDur  time.Duration
	cohorts  string
	zipf     float64
	graphs   string
	seed     int64
	workers  int
	cache    int
	jsonPath string
	record   string
	replay   string
	traceOut string
	quick    bool

	ingestDurability string
	ingestMaxDepth   int
}

func parseFlags(args []string) (cliConfig, error) {
	var c cliConfig
	fs := flag.NewFlagSet("mfbc-load", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "", "base URL of a live server (empty = in-process server)")
	fs.StringVar(&c.mode, "mode", "run", "run | sweep")
	fs.StringVar(&c.loop, "loop", "open", "run-mode driver discipline: open | closed")
	fs.Float64Var(&c.rate, "rate", 50, "open-loop offered rate, requests/second")
	fs.StringVar(&c.schedule, "schedule", "constant", "open-loop rate schedule: constant | step:F@D | diurnal:A@D")
	fs.DurationVar(&c.duration, "duration", 10*time.Second, "run-mode duration")
	fs.DurationVar(&c.window, "window", time.Second, "latency/stats window width")
	fs.IntVar(&c.inflight, "inflight", 64, "open-loop bound on outstanding requests")
	fs.StringVar(&c.rates, "rates", "25,50,100,200,400", "sweep-mode offered rates, ascending")
	fs.DurationVar(&c.stepDur, "step-duration", 5*time.Second, "sweep-mode duration per rate step")
	fs.StringVar(&c.cohorts, "cohorts", "default", `cohort mix: "default" or name=kind:weight[,...] (kinds exact|topk|sampled|mutate)`)
	fs.Float64Var(&c.zipf, "zipf", 1.5, "zipf exponent of skewed cohorts (> 1)")
	fs.StringVar(&c.graphs, "graphs", "hot=grid:10x10x5,warm=uniform:120x480",
		"workload graphs: name=kind:dims[,...] (grid:RxC[xW] | uniform:NxM | rmat:SxEF)")
	fs.Int64Var(&c.seed, "seed", 42, "workload seed (same seed → identical trace)")
	fs.IntVar(&c.workers, "workers", 1, "in-process server: kernel threads per compute")
	fs.IntVar(&c.cache, "cache", 256, "in-process server: result-cache size")
	fs.StringVar(&c.jsonPath, "json", "", "write bench points (mfbc-bench schema) to this file")
	fs.StringVar(&c.record, "record", "", "record the generated open-loop trace to this JSONL file")
	fs.StringVar(&c.replay, "replay", "", "replay an open-loop trace from this JSONL file instead of generating")
	fs.StringVar(&c.traceOut, "trace-out", "", "in-process mode: enable request tracing on the embedded server and stream finished traces to this JSONL file")
	fs.BoolVar(&c.quick, "quick", false, "CI preset: small in-process saturation sweep (overrides most knobs)")
	fs.StringVar(&c.ingestDurability, "ingest-durability", "applied",
		"in-process server: default PATCH ack durability, applied | enqueued")
	fs.IntVar(&c.ingestMaxDepth, "ingest-max-depth", 256,
		"in-process server: per-graph write-queue bound before 429 backpressure (negative = unbounded)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.quick {
		// Small enough to finish in tens of seconds on one core, hot
		// enough that the top rate saturates it.
		c.mode = "sweep"
		c.addr = ""
		c.graphs = "hot=grid:8x8x5,warm=uniform:48x160"
		c.cohorts = "readers=topk:4,dashboards=sampled:2,writers=mutate:1"
		c.rates = "40,120,360,1080"
		c.stepDur = 1500 * time.Millisecond
		c.window = 500 * time.Millisecond
		c.inflight = 32
		c.workers = 1
	}
	return c, nil
}

// parseGraphs parses the -graphs grammar into seeded workload graphs.
func parseGraphs(spec string, seed int64) ([]*load.SeededGraph, error) {
	var graphs []*load.SeededGraph
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -graphs entry %q (want name=kind:dims)", entry)
		}
		kind, dims, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("bad -graphs entry %q (want name=kind:dims)", entry)
		}
		var nums []int
		for _, d := range strings.Split(dims, "x") {
			v, err := strconv.Atoi(d)
			if err != nil {
				return nil, fmt.Errorf("bad -graphs dims in %q: %w", entry, err)
			}
			nums = append(nums, v)
		}
		gs := server.GraphSpec{Kind: kind, Seed: seed + int64(i)}
		switch {
		case kind == "grid" && len(nums) == 2:
			gs.Rows, gs.Cols = nums[0], nums[1]
		case kind == "grid" && len(nums) == 3:
			gs.Rows, gs.Cols, gs.MaxWeight = nums[0], nums[1], nums[2]
		case kind == "uniform" && len(nums) == 2:
			gs.N, gs.M = nums[0], nums[1]
		case kind == "rmat" && len(nums) == 2:
			gs.Scale, gs.EdgeFactor = nums[0], nums[1]
		default:
			return nil, fmt.Errorf("bad -graphs entry %q: %s wants grid:RxC[xW], uniform:NxM, or rmat:SxEF", entry, kind)
		}
		sg, err := load.NewSeededGraph(name, gs)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, sg)
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("-graphs is empty")
	}
	return graphs, nil
}

// parseCohorts parses the -cohorts grammar.
func parseCohorts(spec string, zipfS float64) ([]load.CohortSpec, error) {
	switch spec {
	case "default":
		cohorts := load.DefaultCohorts()
		for i := range cohorts {
			cohorts[i].ZipfS = zipfS
		}
		return cohorts, nil
	case "ingest":
		cohorts := load.IngestCohorts()
		for i := range cohorts {
			cohorts[i].ZipfS = zipfS
		}
		return cohorts, nil
	}
	var cohorts []load.CohortSpec
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -cohorts entry %q (want name=kind[:weight])", entry)
		}
		kind, weightStr, hasWeight := strings.Cut(rest, ":")
		c := load.CohortSpec{Name: name, Kind: kind, ZipfS: zipfS}
		if kind == "sampled" {
			c.Popularity = "zipf" // dashboards poll a skewed key set
		}
		if hasWeight {
			w, err := strconv.ParseFloat(weightStr, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -cohorts weight in %q: %w", entry, err)
			}
			c.Weight = w
		}
		cohorts = append(cohorts, c)
	}
	if len(cohorts) == 0 {
		return nil, fmt.Errorf("-cohorts is empty")
	}
	return cohorts, nil
}

func parseRates(spec string) ([]float64, error) {
	var rates []float64
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		r, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -rates entry %q: %w", s, err)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-rates is empty")
	}
	return rates, nil
}

func run(cfg cliConfig, out io.Writer) error {
	graphs, err := parseGraphs(cfg.graphs, cfg.seed)
	if err != nil {
		return err
	}
	cohorts, err := parseCohorts(cfg.cohorts, cfg.zipf)
	if err != nil {
		return err
	}

	switch cfg.ingestDurability {
	case "", server.DurabilityApplied, server.DurabilityEnqueued:
	default:
		return fmt.Errorf("unknown -ingest-durability %q (want %s|%s)",
			cfg.ingestDurability, server.DurabilityApplied, server.DurabilityEnqueued)
	}

	var tg load.Target
	if cfg.addr != "" {
		if cfg.traceOut != "" {
			return fmt.Errorf("-trace-out drives the in-process server; against a live server use mfbc-serve -trace-out")
		}
		tg = load.NewHTTPTarget(cfg.addr, 2*cfg.inflight)
	} else {
		scfg := server.Config{
			Workers: cfg.workers, CacheSize: cfg.cache,
			IngestDurability: cfg.ingestDurability, IngestMaxDepth: cfg.ingestMaxDepth,
		}
		if cfg.traceOut != "" {
			f, err := os.Create(cfg.traceOut)
			if err != nil {
				return fmt.Errorf("-trace-out: %w", err)
			}
			defer f.Close()
			tracer := obs.NewTracer(64)
			tracer.SetSink(f)
			scfg.Tracer = tracer
		}
		tg = load.NewInprocTarget(scfg)
	}
	defer tg.Close()
	if err := load.Seed(tg, graphs); err != nil {
		return err
	}

	var points []bench.Point
	switch cfg.mode {
	case "sweep":
		rates, err := parseRates(cfg.rates)
		if err != nil {
			return err
		}
		res, err := load.RunSweep(tg, load.SweepConfig{
			Cohorts:      cohorts,
			Graphs:       graphs,
			Rates:        rates,
			StepDuration: cfg.stepDur,
			Window:       cfg.window,
			MaxInflight:  cfg.inflight,
			Seed:         cfg.seed,
		})
		if err != nil {
			return err
		}
		printSweep(out, res)
		for _, p := range res.Points {
			if err := p.Run.CrossCheck(); err != nil {
				fmt.Fprintf(out, "WARNING (rate %.0f): %v\n", p.Offered, err)
			}
		}
		points = res.BenchPoints(graphs)

	case "run":
		res, err := runOnce(tg, cfg, cohorts, graphs)
		if err != nil {
			return err
		}
		printRun(out, res)
		if err := res.CrossCheck(); err != nil {
			fmt.Fprintf(out, "WARNING: %v\n", err)
		}
		points = res.BenchPoints(graphs)

	default:
		return fmt.Errorf("unknown -mode %q (want run|sweep)", cfg.mode)
	}

	if cfg.jsonPath != "" {
		if err := writeJSON(cfg.jsonPath, points); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		fmt.Fprintf(out, "wrote %d points to %s\n", len(points), cfg.jsonPath)
	}
	return nil
}

func runOnce(tg load.Target, cfg cliConfig, cohorts []load.CohortSpec, graphs []*load.SeededGraph) (*load.RunResult, error) {
	tc := load.TraceConfig{
		Cohorts: cohorts,
		Graphs:  graphs,
		Horizon: cfg.duration,
		Seed:    cfg.seed,
	}
	switch cfg.loop {
	case "closed":
		if cfg.record != "" || cfg.replay != "" {
			return nil, fmt.Errorf("-record/-replay apply to open-loop runs only")
		}
		return load.RunClosedLoop(tg, tc, cfg.window)
	case "open":
		var trace []load.Request
		if cfg.replay != "" {
			f, err := os.Open(cfg.replay)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			trace, err = load.ReadTrace(f)
			if err != nil {
				return nil, err
			}
		} else {
			sched, err := load.ParseSchedule(cfg.schedule, cfg.rate)
			if err != nil {
				return nil, err
			}
			tc.Schedule = sched
			trace, err = load.GenerateTrace(tc)
			if err != nil {
				return nil, err
			}
		}
		if cfg.record != "" {
			f, err := os.Create(cfg.record)
			if err != nil {
				return nil, err
			}
			if err := load.WriteTrace(f, trace); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		return load.RunOpenLoop(tg, trace, cfg.rate, cfg.window, cfg.inflight)
	}
	return nil, fmt.Errorf("unknown -loop %q (want open|closed)", cfg.loop)
}

func printCohorts(tw *tabwriter.Writer, sums []load.CohortSummary) {
	for _, c := range sums {
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			c.Cohort, c.Requests, c.Errors, c.RPS, c.GoodputRPS,
			c.Lat.P50MS, c.Lat.P95MS, c.Lat.P99MS, c.Lat.MaxMS)
	}
}

func printRun(out io.Writer, res *load.RunResult) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "run: %d requests, %d errors in %.2fs\n",
		res.Total.Requests, res.Total.Errors, res.Elapsed.Seconds())
	fmt.Fprintf(tw, "  cohort\treq\terr\trps\tgoodput\tp50ms\tp95ms\tp99ms\tmaxms\n")
	printCohorts(tw, res.Cohorts)
	printCohorts(tw, []load.CohortSummary{res.Total})
	tw.Flush()
	if ss := res.ServerSummary(); ss != nil {
		clip := ""
		if ss.Clipped {
			clip = " (quantile past last finite bucket; edges clipped)"
		}
		fmt.Fprintf(out, "server side: %d requests, p50≤%.1fms p95≤%.1fms p99≤%.1fms%s\n",
			ss.Requests, ss.P50MS, ss.P95MS, ss.P99MS, clip)
	}
}

func printSweep(out io.Writer, res *load.SweepResult) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "offered\tachieved\tgoodput\tp50ms\tp99ms\tqw99ms\terr\tsaturated\n")
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%.0f\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%d\t%v\n",
			p.Offered, p.Run.Total.RPS, p.Run.Total.GoodputRPS,
			p.Run.Total.Lat.P50MS, p.Run.Total.Lat.P99MS,
			p.Run.Total.QueueWait.P99MS,
			p.Run.Total.Errors, p.Saturated)
	}
	tw.Flush()
	switch {
	case res.KneeFound:
		fmt.Fprintf(out, "knee: %.0f req/s (highest sustained rate before saturation)\n", res.KneeRPS)
	case res.KneeIndex >= 0:
		fmt.Fprintf(out, "no knee found: service sustained every offered rate up to %.0f req/s\n", res.KneeRPS)
	default:
		fmt.Fprintf(out, "no knee found: even the lowest offered rate saturated the service\n")
	}
}

// writeJSON dumps the points as an indented JSON array, the same format
// mfbc-bench -json writes, so one plotting pipeline reads both.
func writeJSON(path string, points []bench.Point) error {
	b, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}
