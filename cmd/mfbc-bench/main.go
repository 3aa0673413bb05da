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
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the experiments and returns the exit status: 2 for
// a bad invocation, 1 when an experiment or the -json file fails. With
// -json the file is rewritten after every experiment, and before an
// experiment's failure ends the run, so a grid that fails or is killed
// keeps every point it finished.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mfbc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment id (or 'all')")
	list := fs.Bool("list", false, "list experiment ids and exit")
	procs := fs.String("procs", "1,4,16,64", "comma-separated simulated node counts")
	workers := fs.Int("workers", 0, "local kernel threads per simulated rank (0 = fair share of all cores; 1 = sequential)")
	scale := fs.Int("scale", 1, "stand-in graph scale multiplier")
	batch := fs.Int("batch", 32, "sources per timed batch")
	seed := fs.Int64("seed", 42, "generator seed")
	quick := fs.Bool("quick", false, "shrink workloads (smoke test)")
	transport := fs.String("transport", "sim", "machine backend for distributed runs: 'sim' (in-process simulated machine) or 'tcp' (loopback rank-per-process mesh per run; modeled columns are identical, wall_sec measures real transport overhead)")
	jsonPath := fs.String("json", "", "write all bench points as a JSON array to this path (BENCH_*.json)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range bench.Experiments {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "mfbc-bench: -exp is required (use -list to enumerate)")
		return 2
	}

	var procList []int
	for _, tok := range strings.Split(*procs, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil || v < 1 {
			fmt.Fprintf(stderr, "mfbc-bench: bad proc count %q\n", tok)
			return 2
		}
		procList = append(procList, v)
	}
	if len(procList) == 0 {
		fmt.Fprintf(stderr, "mfbc-bench: -procs %q names no node count\n", *procs)
		return 2
	}
	cfg := bench.Config{
		Out:       stdout,
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
	save := func() bool {
		if *jsonPath == "" {
			return true
		}
		if err := writeJSON(*jsonPath, points); err != nil {
			fmt.Fprintf(stderr, "mfbc-bench: -json: %v\n", err)
			return false
		}
		return true
	}
	for _, id := range ids {
		pts, err := bench.Run(id, cfg)
		points = append(points, pts...)
		if err != nil {
			fmt.Fprintf(stderr, "mfbc-bench: %s: %v\n", id, err)
			save()
			return 1
		}
		if !save() {
			return 1
		}
	}
	if *jsonPath != "" {
		fmt.Fprintf(stderr, "mfbc-bench: wrote %d points to %s\n", len(points), *jsonPath)
	}
	return 0
}

// writeJSON dumps the collected points as an indented JSON array, so the
// perf trajectory across runs is machine-readable rather than stderr-only.
// It writes a temporary file beside path and renames it over path, so a
// run killed mid-write leaves the last complete file.
func writeJSON(path string, points []bench.Point) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(points); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
