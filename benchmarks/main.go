// Command benchmarks is the repository's benchmark: four fixed-script
// workloads (see README.md), each run by
//
//	bash benchmarks/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run prints every end-to-end metric; a traced run prints the
// per-layer ledger. Either way every result is checked against the
// benchmark's own Brandes oracle, and the last line of standard output is
// one JSON object {correct, attempted, failed, metrics}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

var workloadNames = []string{"seq-rmat", "dist-rmat", "stream-road", "serve-mixed"}

// calibRefJSON holds, per workload, the calibrator's median section time
// in seconds on the box the self-check ran on. Calibrated times are
// reported as if the calibrator had taken exactly this long.
//
//go:embed calib_ref.json
var calibRefJSON []byte

func calibRef(workload string) float64 {
	var refs map[string]float64
	if err := json.Unmarshal(calibRefJSON, &refs); err != nil {
		return 0
	}
	return refs[workload]
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// instance is one set-up workload: script generated, operands, engine or
// server built, warm-up iteration done.
type instance struct {
	name   string
	sz     sizes
	sc     *script
	seq    *seqOperands
	dist   *distOperands
	stream *streamOperands
	serve  *serveOperands
}

// setup builds everything the workload needs from the seed and runs one
// full untimed warm-up iteration, so lazy construction lands here and not
// in the first timed section.
func setup(name string, seed int64, sz sizes, tracer *obs.Tracer) (*instance, error) {
	sc, err := newScript(name, seed, sz)
	if err != nil {
		return nil, err
	}
	in := &instance{name: name, sz: sz, sc: sc}
	switch name {
	case "seq-rmat":
		in.seq = newSeqOperands(sc.Graph, sc.SourceSets, sz.seqCalibReps)
		seqRun(in.seq, 1, nil)
	case "dist-rmat":
		in.dist = newDistOperands(sc.Graph, sc.SourceSets, sz.distCalibReps)
		_, err = distRun(in.dist, 1, nil)
	case "stream-road":
		in.stream, err = newStreamEngine(sc.Graph, sc.Batches, sc.Classes, sz.streamBaselineEvery, sz.streamCalibReps)
	case "serve-mixed":
		in.serve, err = newService(sc.Graph, sc.Cold, sc.Batches, sz.serveBurst, sz.serveCalibReps, tracer)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// iterations is the scripted length of the workload's timed phase.
func (in *instance) iterations() int {
	switch in.name {
	case "seq-rmat":
		return in.sz.seqIters
	case "dist-rmat":
		return in.sz.distIters
	case "stream-road":
		return in.sz.streamBatches
	default:
		return in.sz.serveCycles
	}
}

// run executes the first n iterations of the script.
func (in *instance) run(n int, rec *recorder, tracer *obs.Tracer) (*runData, error) {
	switch in.name {
	case "seq-rmat":
		return seqRun(in.seq, n, rec), nil
	case "dist-rmat":
		return distRun(in.dist, n, rec)
	case "stream-road":
		return streamRun(in.stream, n, rec, tracer)
	default:
		return serveRun(in.serve, n, rec)
	}
}

func (in *instance) close() {
	if in.serve != nil {
		in.serve.close()
	}
}

// setupTimed sets the workload up sz.setups times from scratch and keeps
// the last instance; the median is the set-up time.
func setupTimed(name string, seed int64, sz sizes) (*instance, []float64, error) {
	var in *instance
	var secs []float64
	for k := 0; k < sz.setups; k++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		in, err = setup(name, seed, sz, nil)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return in, secs, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmarks:", err)
	os.Exit(1)
}

// ballastBytes is the resident heap every workload runs with. The graphs
// here are small enough to time on two cores, so the live heap would sit
// far below Go's 4 MiB minimum heap goal and the collector would run after
// every few megabytes allocated (measured: ~185 cycles per serve-mixed
// write cycle, more than half of its wall time, and all of its run-to-run
// spread). A pointer-free ballast gives the collector the cadence it has in
// a process holding a graph of realistic size; it is never touched, so it
// costs no marking and no resident memory.
const ballastBytes = 64 << 20

func main() {
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	workload := flag.String("workload", "", "one of seq-rmat, dist-rmat, stream-road, serve-mixed")
	seed := flag.Int64("seed", 1, "script seed; same seed, same script")
	seconds := flag.Int("seconds", 20, "sizes the script: nominal length of the timed phase on the reference box")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	smoke := flag.Bool("smoke", false, "tiny sizes (< 5 s), for tests")
	out := flag.String("out", "out", "directory for span files")
	selfcheck := flag.Int("selfcheck", 0, "run every workload N times from cold processes (seeds 1..N) and report each metric's spread against its bound")
	write := flag.Bool("write", false, "with -selfcheck: rewrite NOISE.json, RESULTS.json and golden.json in -dir")
	recalibrate := flag.Bool("recalibrate", false, "with -selfcheck: rewrite calib_ref.json in -dir from this pass's calibrator medians (rebuild, then -write)")
	spec := flag.String("spec", "BENCHMARK.json", "with -selfcheck: the benchmark declaration to judge against")
	dir := flag.String("dir", "benchmarks", "with -selfcheck -write: the benchmark's source directory")
	flag.Parse()

	if *selfcheck > 0 {
		if err := selfCheck(*selfcheck, *seconds, *workload, *spec, *dir, *write, *recalibrate); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	sz := sizesFor(*seconds, *smoke)
	ref := calibRef(*workload)
	if *smoke {
		ref = 0
	}
	var res *result
	var err error
	if *trace != 0 {
		res, err = tracedRun(*workload, *seed, sz, ref, filepath.Join(*out, *workload+".trace.jsonl"))
	} else {
		res, err = untracedRun(*workload, *seed, sz, ref)
	}
	if err != nil {
		fail(err)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult prints every metric by name and unit, then the one-line
// JSON object the driver reads.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}
