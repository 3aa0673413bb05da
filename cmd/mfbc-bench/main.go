// Command mfbc-bench regenerates the tables and figures of the paper's
// evaluation section on the simulated machine. Run with -list to see the
// experiment ids and -exp all to reproduce everything.
//
// Example:
//
//	mfbc-bench -exp fig1a -procs 1,4,16,64 -batch 32
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	list := flag.Bool("list", false, "list experiment ids and exit")
	procs := flag.String("procs", "1,4,16,64", "comma-separated simulated node counts")
	workers := flag.Int("workers", 0, "local kernel threads per simulated rank (0 = fair share of all cores; 1 = sequential)")
	scale := flag.Int("scale", 1, "stand-in graph scale multiplier")
	batch := flag.Int("batch", 32, "sources per timed batch")
	seed := flag.Int64("seed", 42, "generator seed")
	quick := flag.Bool("quick", false, "shrink workloads (smoke test)")
	transport := flag.String("transport", "sim", "machine backend for distributed runs: 'sim' (in-process simulated machine) or 'tcp' (loopback rank-per-process mesh per run; modeled columns are identical, wall_sec measures real transport overhead)")
	jsonPath := flag.String("json", "", "write all bench points as a JSON array to this path (BENCH_*.json)")
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "mfbc-bench: -exp is required (use -list to enumerate)")
		os.Exit(2)
	}

	var procList []int
	for _, tok := range strings.Split(*procs, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "mfbc-bench: bad proc count %q\n", tok)
			os.Exit(2)
		}
		procList = append(procList, v)
	}
	if len(procList) == 0 {
		fmt.Fprintf(os.Stderr, "mfbc-bench: -procs %q names no node count\n", *procs)
		os.Exit(2)
	}
	cfg := bench.Config{
		Out:       os.Stdout,
		Procs:     procList,
		Workers:   *workers,
		Scale:     *scale,
		Batch:     *batch,
		Seed:      *seed,
		Quick:     *quick,
		Transport: *transport,
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments
	}
	points := make([]bench.Point, 0, 64)
	for _, id := range ids {
		pts, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mfbc-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		points = append(points, pts...)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, points); err != nil {
			fmt.Fprintf(os.Stderr, "mfbc-bench: -json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mfbc-bench: wrote %d points to %s\n", len(points), *jsonPath)
	}
}

// writeJSON dumps the collected points as an indented JSON array, so the
// perf trajectory across runs is machine-readable rather than stderr-only.
func writeJSON(path string, points []bench.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(points); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
