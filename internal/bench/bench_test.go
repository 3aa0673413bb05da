package bench

import (
	"bytes"
	"slices"
	"strings"
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

// TestAllExperimentsSmoke also pins the id list: the paper's seven tables
// and figures plus the two ablations, each once — what mfbc-bench -list
// prints.
func TestAllExperimentsSmoke(t *testing.T) {
	want := []string{"table2", "fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "table3", "ablate-decomp", "ablate-batch"}
	if !slices.Equal(Experiments, want) {
		t.Fatalf("experiment ids = %v, want %v", Experiments, want)
	}
	for _, id := range Experiments {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := quickCfg()
			cfg.Out = &buf
			pts, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(pts) == 0 {
				t.Fatalf("%s produced no points", id)
			}
			if buf.Len() == 0 {
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

func TestFig1cWeightedSlowdown(t *testing.T) {
	cfg := quickCfg()
	pts, err := Run("fig1c", cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestTable3ReportsBothEngines(t *testing.T) {
	cfg := quickCfg()
	pts, err := Run("table3", cfg)
	if err != nil {
		t.Fatal(err)
	}
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
		sim := quickCfg()
		tcp := quickCfg()
		tcp.Transport = "tcp"
		simPts, err := Run("fig1c", sim)
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
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
