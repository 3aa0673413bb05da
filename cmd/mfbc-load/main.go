// Command mfbc-load is the load harness for the BC query service: a
// deterministic workload generator and an open-loop saturation sweep (see
// internal/load).
//
// Workloads mix cohorts — read-heavy top-k users, exact-query users,
// sampled-approximation dashboard pollers, and mutation-heavy PATCH
// streamers — each with its own key-popularity distribution over a set of
// seeded graphs. Traces are deterministic in -seed.
//
// The harness does one thing: step open-loop Poisson load through -rates
// (-step-duration each), stop past the knee, and report it. A single
// measured run is a one-rate sweep (-rates 200 -step-duration 10s). Every
// step is bracketed by /metrics scrapes, which supply the server-side
// request count, latency percentiles and cache/ingest counter deltas.
//
// The target is a live server (-addr http://host:8080) or, with -addr
// empty, an in-process server — no sockets — suitable for CI.
//
// Examples:
//
//	mfbc-load -rates 50,100,200,400,800 -step-duration 5s -json BENCH_load.json
//	mfbc-load -addr http://localhost:8080 -rates 200 -step-duration 10s
//	mfbc-load -quick -json BENCH_load_quick.json -trace-out TRACE_load_quick.jsonl
//	mfbc-load -cohorts writers=mutate:2,readers=topk:3 -ingest-durability enqueued -ingest-max-depth 64
//
// -json writes the sweep as load.SweepResult marshals: one entry per rate
// step under "points" (the run's totals, per-cohort summaries, server-side
// summary and the /metrics delta), and knee_index / knee_rps / knee_found
// naming the knee step.
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
	traceOut string
	quick    bool

	ingestDurability string
	ingestMaxDepth   int
}

func parseFlags(args []string) (cliConfig, error) {
	var c cliConfig
	fs := flag.NewFlagSet("mfbc-load", flag.ContinueOnError)
	registerFlags(fs, &c)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.quick {
		// Small enough to finish in tens of seconds on one core, hot
		// enough that the top rate saturates it.
		c.addr = ""
		c.graphs = "hot=grid:8x8x5,warm=uniform:48x160"
		c.cohorts = "readers=topk:4,dashboards=sampled:2,writers=mutate:1"
		c.rates = "40,120,360,1080"
		c.stepDur = 1500 * time.Millisecond
		c.inflight = 32
		c.workers = 1
	}
	return c, nil
}

func registerFlags(fs *flag.FlagSet, c *cliConfig) {
	fs.StringVar(&c.addr, "addr", "", "base URL of a live server (empty = in-process server)")
	fs.IntVar(&c.inflight, "inflight", 64, "bound on outstanding requests")
	fs.StringVar(&c.rates, "rates", "25,50,100,200,400", "offered rates (requests/second), ascending; one rate = a single run")
	fs.DurationVar(&c.stepDur, "step-duration", 5*time.Second, "duration per rate step")
	fs.StringVar(&c.cohorts, "cohorts", "default", `cohort mix: "default" or name=kind:weight[,...] (kinds exact|topk|sampled|mutate)`)
	fs.Float64Var(&c.zipf, "zipf", 1.5, "zipf exponent of skewed cohorts (> 1)")
	fs.StringVar(&c.graphs, "graphs", "hot=grid:10x10x5,warm=uniform:120x480",
		"workload graphs: name=kind:dims[,...] (grid:RxC[xW] | uniform:NxM | rmat:SxEF)")
	fs.Int64Var(&c.seed, "seed", 42, "workload seed (same seed → identical trace)")
	fs.IntVar(&c.workers, "workers", 1, "in-process server: kernel threads per compute")
	fs.IntVar(&c.cache, "cache", 256, "in-process server: result-cache size")
	fs.StringVar(&c.jsonPath, "json", "", "write the sweep result (per-step summaries, /metrics deltas, knee) as JSON to this file")
	fs.StringVar(&c.traceOut, "trace-out", "", "in-process mode: enable request tracing on the embedded server and stream finished traces to this JSONL file")
	fs.BoolVar(&c.quick, "quick", false, "CI preset: small in-process saturation sweep (overrides most knobs)")
	fs.StringVar(&c.ingestDurability, "ingest-durability", "applied",
		"in-process server: default PATCH ack durability, applied | enqueued")
	fs.IntVar(&c.ingestMaxDepth, "ingest-max-depth", 256,
		"in-process server: per-graph write-queue bound before 429 backpressure (negative = unbounded)")
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
	if spec == "default" {
		cohorts := load.DefaultCohorts()
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

	rates, err := parseRates(cfg.rates)
	if err != nil {
		return err
	}

	var client *load.Client
	if cfg.addr != "" {
		if cfg.traceOut != "" {
			return fmt.Errorf("-trace-out drives the in-process server; against a live server use mfbc-serve -trace-out")
		}
		client = load.NewClient(cfg.addr, 2*cfg.inflight)
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
		client = load.NewHandlerClient(server.NewMux(server.New(scfg)))
	}
	defer client.Close()
	if err := client.Seed(graphs); err != nil {
		return err
	}

	res, err := load.RunSweep(client, load.SweepConfig{
		Cohorts:      cohorts,
		Graphs:       graphs,
		Rates:        rates,
		StepDuration: cfg.stepDur,
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

	if cfg.jsonPath != "" {
		if err := writeJSON(cfg.jsonPath, res); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		fmt.Fprintf(out, "wrote %d rate steps to %s\n", len(res.Points), cfg.jsonPath)
	}
	return nil
}

// printSweep prints one row per rate step. srv99ms is the server's own
// p99 over the step, from its /metrics histogram delta: a bucket upper
// edge, so coarser than — and an independent check on — the client's p99ms.
func printSweep(out io.Writer, res *load.SweepResult) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "offered\tachieved\tgoodput\tp50ms\tp99ms\tsrv99ms\tqw99ms\terr\tsaturated\n")
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%.0f\t%.1f\t%.1f\t%.2f\t%.2f\t≤%g\t%.2f\t%d\t%v\n",
			p.Offered, p.Run.Total.RPS, p.Run.Total.GoodputRPS,
			p.Run.Total.Lat.P50MS, p.Run.Total.Lat.P99MS,
			p.Run.Server.P99MS, p.Run.Total.QueueWait.P99MS,
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

// writeJSON dumps the sweep as indented JSON.
func writeJSON(path string, res *load.SweepResult) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}
