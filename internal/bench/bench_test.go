package bench

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

func quickCfg() Config {
	return Config{Procs: []int{1, 4}, Quick: true, Batch: 8, Seed: 7}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

// TestRunUnknownTransport: a misspelt backend is the caller's error, not a
// failed point per row.
func TestRunUnknownTransport(t *testing.T) {
	cfg := quickCfg()
	cfg.Transport = "tpc"
	if pts, err := Run("table3", cfg); err == nil {
		t.Fatalf("unknown transport must fail; got %d points", len(pts))
	}
}

// quickRun is one experiment of the shared quick run.
type quickRun struct {
	pts []Point
	out string
	err error
}

// quickRuns holds, per experiment, its one run under quickCfg on the
// simulated machine, made the first time a test asks for it; the tests
// below read that run.
var quickRuns = func() map[string]func() quickRun {
	runs := map[string]func() quickRun{}
	for _, id := range Experiments {
		runs[id] = sync.OnceValue(func() quickRun {
			var buf bytes.Buffer
			cfg := quickCfg()
			cfg.Out = &buf
			pts, err := Run(id, cfg)
			return quickRun{pts, buf.String(), err}
		})
	}
	return runs
}()

// quickPoints returns id's points from the shared quick run.
func quickPoints(t *testing.T, id string) []Point {
	t.Helper()
	r := quickRuns[id]()
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.pts
}

// TestAllExperimentsSmoke also pins the id list: the paper's seven tables
// and figures plus the two ablations, each once — what mfbc-bench -list
// prints.
func TestAllExperimentsSmoke(t *testing.T) {
	want := []string{"table2", "fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "table3", "ablate-decomp", "ablate-batch"}
	if !slices.Equal(Experiments, want) {
		t.Fatalf("experiment ids = %v, want %v", Experiments, want)
	}
	for _, id := range Experiments {
		t.Run(id, func(t *testing.T) {
			pts := quickPoints(t, id)
			if len(pts) == 0 {
				t.Fatalf("%s produced no points", id)
			}
			if quickRuns[id]().out == "" {
				t.Fatalf("%s printed nothing", id)
			}
			for _, p := range pts {
				// table2 reports graph properties, not a throughput rate.
				if p.Err == "" && id != "table2" && p.MTEPSNode <= 0 {
					t.Fatalf("%s: %s/%s p=%d has no rate", id, p.Graph, p.Engine, p.Procs)
				}
			}
		})
	}
}

// TestQuickGridGolden pins every quick point's integer and string columns
// to testdata/quick_points.tsv, which was captured from the nine
// hand-written runners the grid replaced. Modeled and wall seconds and the
// rate are floats and are left out.
func TestQuickGridGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# experiment\tgraph\tengine\tprocs\tbatch\tn\tm\tplan\tbytes\tmsgs\titers\terr\n")
	for _, id := range Experiments {
		for _, p := range quickPoints(t, id) {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%q\n",
				p.Experiment, p.Graph, p.Engine, p.Procs, p.Batch, p.N, p.M, p.Plan, p.Bytes, p.Msgs, p.Iters, p.Err)
		}
	}
	want, err := os.ReadFile("testdata/quick_points.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("quick points moved from testdata/quick_points.tsv; fresh rows:\n%s", got)
	}
}

// TestSinglePUsesLargestProcs: the experiments measured on one p take it
// from the largest -procs entry, not the last one.
func TestSinglePUsesLargestProcs(t *testing.T) {
	pts, err := Run("ablate-batch", Config{Procs: []int{16, 4}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Procs != 4 {
			t.Fatalf("ablate-batch with -procs 16,4 measured at p=%d, want 16/4 = 4", p.Procs)
		}
	}
}

func TestFig1cWeightedSlowdown(t *testing.T) {
	pts := quickPoints(t, "fig1c")
	// The paper: adding weights costs MFBC more than 2x in rate (more
	// iterations, denser frontiers). Compare at matching procs/E.
	var unweighted, weighted []Point
	for _, p := range pts {
		if p.Engine != "ctf-mfbc" {
			continue
		}
		if strings.HasSuffix(p.Graph, "-w") {
			weighted = append(weighted, p)
		} else {
			unweighted = append(unweighted, p)
		}
	}
	if len(weighted) == 0 || len(unweighted) != len(weighted) {
		t.Fatalf("unexpected series shapes: %d vs %d", len(unweighted), len(weighted))
	}
	slower := 0
	for i := range weighted {
		if weighted[i].Err != "" || unweighted[i].Err != "" {
			continue
		}
		if weighted[i].MTEPSNode < unweighted[i].MTEPSNode {
			slower++
		}
	}
	if slower < len(weighted)/2 {
		t.Fatalf("weighted MFBC faster than unweighted in %d/%d points", len(weighted)-slower, len(weighted))
	}
	// Where the weighted rate goes: more Bellman–Ford iterations, each
	// moving no more modeled bytes than an unweighted one.
	for i, w := range weighted {
		u := unweighted[i]
		if w.Err != "" || u.Err != "" {
			continue
		}
		if w.Iters <= u.Iters || w.Bytes*int64(u.Iters) > u.Bytes*int64(w.Iters) {
			t.Errorf("%s vs %s at p=%d: %d iterations, %d bytes against %d, %d; want more iterations at no more bytes each",
				w.Graph, u.Graph, w.Procs, w.Iters, w.Bytes, u.Iters, u.Bytes)
		}
	}
}

// TestMFBCOutscalesBaseline is the paper's claim (§7, Figure 1) on the
// modeled columns, which are counted work priced by DefaultModel and so do
// not depend on the host: on each unweighted stand-in of fig1a/fig1b, MFBC's
// modeled MTEPS/node over the CombBLAS-style baseline's does not fall as p
// rises through 4, 16 and 64, and MFBC is ahead at p = 64. The p = 4
// points are the shared quick run's (quickCfg, at its other p).
func TestMFBCOutscalesBaseline(t *testing.T) {
	cfg := quickCfg()
	cfg.Procs = []int{16, 64}
	ids := []string{"fig1a", "fig1b"}
	runs := make([]quickRun, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i].pts, runs[i].err = Run(id, cfg)
		}()
	}
	wg.Wait()
	rate := map[string]map[int]float64{} // by engine+graph, then p
	for i, id := range ids {
		if runs[i].err != nil {
			t.Fatal(runs[i].err)
		}
		for _, pt := range append(quickPoints(t, id), runs[i].pts...) {
			if pt.Err != "" {
				t.Fatalf("%s %s/%s at p=%d: %s", id, pt.Graph, pt.Engine, pt.Procs, pt.Err)
			}
			key := pt.Engine + " " + pt.Graph
			if rate[key] == nil {
				rate[key] = map[int]float64{}
			}
			rate[key][pt.Procs] = pt.MTEPSNode
		}
	}
	for _, g := range standinIDs[1:3] {
		prev := 0.0
		for _, p := range []int{4, 16, 64} {
			mfbc, base := rate["ctf-mfbc "+g][p], rate["combblas "+g][p]
			if mfbc == 0 || base == 0 {
				t.Fatalf("%s at p=%d: no rate (mfbc %v, combblas %v)", g, p, mfbc, base)
			}
			ratio := mfbc / base
			t.Logf("%s p=%d: MFBC %.2f, CombBLAS-style %.2f modeled MTEPS/node, ratio %.2f", g, p, mfbc, base, ratio)
			if ratio < prev {
				t.Errorf("%s: MFBC's lead over the baseline falls from %.3f to %.3f at p=%d", g, prev, ratio, p)
			}
			prev = ratio
		}
		if prev <= 1 {
			t.Errorf("%s: MFBC ÷ baseline is %.3f at p=64, want > 1", g, prev)
		}
	}
}

func TestTable3ReportsBothEngines(t *testing.T) {
	pts := quickPoints(t, "table3")
	engines := map[string]bool{}
	for _, p := range pts {
		engines[p.Engine] = true
		if p.Err == "" && (p.Bytes == 0 || p.Msgs == 0) {
			t.Fatalf("table3 %s/%s has empty comm costs", p.Graph, p.Engine)
		}
	}
	if !engines["ctf-mfbc"] || !engines["combblas"] {
		t.Fatal("table3 must cover both codes")
	}
}

func TestSampleSources(t *testing.T) {
	s := sampleSources(100, 10, 3)
	if len(s) != 10 {
		t.Fatalf("got %d sources", len(s))
	}
	seen := map[int32]bool{}
	for i, v := range s {
		if v < 0 || v >= 100 {
			t.Fatal("source out of range")
		}
		if seen[v] {
			t.Fatal("duplicate source")
		}
		seen[v] = true
		if i > 0 && s[i-1] >= v {
			t.Fatal("sources must be sorted")
		}
	}
	if got := sampleSources(5, 10, 1); len(got) != 5 {
		t.Fatal("clamp to n failed")
	}
}

func TestMTEPS(t *testing.T) {
	if mteps(1000, 10, 2, 0.001) != 1000*10/0.001/1e6/2 {
		t.Fatal("mteps formula wrong")
	}
	if mteps(1, 1, 1, 0) != 0 {
		t.Fatal("zero time must yield zero rate")
	}
}

// TestTransportDifferential re-runs fig1c (both engines, weighted and
// unweighted graphs) on the loopback TCP mesh and requires every modeled
// column to match the simulated backend exactly — the bench-level pin that
// -transport only changes how bytes move, never what the machine computes.
func TestTransportDifferential(t *testing.T) {
	t.Run("fig1c", func(t *testing.T) {
		simPts := quickPoints(t, "fig1c")
		tcp := quickCfg()
		tcp.Transport = "tcp"
		tcpPts, err := Run("fig1c", tcp)
		if err != nil {
			t.Fatalf("tcp: %v", err)
		}
		if len(simPts) != len(tcpPts) {
			t.Fatalf("point counts: sim %d, tcp %d", len(simPts), len(tcpPts))
		}
		for i := range simPts {
			s, c := simPts[i], tcpPts[i]
			if s.Graph != c.Graph || s.Engine != c.Engine || s.Procs != c.Procs {
				t.Fatalf("point %d identity diverged: sim %+v, tcp %+v", i, s, c)
			}
			if s.ModelSec != c.ModelSec || s.CommSec != c.CommSec ||
				s.Bytes != c.Bytes || s.Msgs != c.Msgs || s.Plan != c.Plan ||
				s.MTEPSNode != c.MTEPSNode || s.Err != c.Err {
				t.Errorf("point %d (%s/%s p=%d): modeled columns diverged:\n sim %+v\n tcp %+v",
					i, s.Graph, s.Engine, s.Procs, s, c)
			}
		}
	})
}
