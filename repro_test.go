package repro

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spgemm"
)

func almostEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

// TestEnginesAgree is the top-level acceptance test: all three engines
// produce identical scores on an unweighted graph, sequentially and
// distributed.
func TestEnginesAgree(t *testing.T) {
	g := RMATGraph(7, 8, 3)
	oracle, err := Compute(g, Options{Engine: EngineBrandes})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{Engine: EngineMFBC},
		{Engine: EngineMFBC, Procs: 4},
		{Engine: EngineMFBC, Procs: 9, Batch: 16},
		{Engine: EngineCombBLAS},
		{Engine: EngineCombBLAS, Procs: 4},
	} {
		res, err := Compute(g, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		for v := range oracle.BC {
			if !almostEqual(res.BC[v], oracle.BC[v]) {
				t.Fatalf("engine %s p=%d: BC[%d]=%g want %g", opt.Engine, opt.Procs, v, res.BC[v], oracle.BC[v])
			}
		}
	}
}

// TestWorkersKnobInvariant: the public Workers knob must not change scores
// in any engine path (sequential fast path, simulated distributed, and
// against the Brandes oracle).
func TestWorkersKnobInvariant(t *testing.T) {
	g := RMATGraph(7, 8, 3)
	oracle, err := Compute(g, Options{Engine: EngineBrandes})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{Engine: EngineMFBC, Workers: 4},
		{Engine: EngineMFBC, Workers: 0},
		{Engine: EngineMFBC, Procs: 4, Workers: 3},
	} {
		res, err := Compute(g, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		for v := range oracle.BC {
			if !almostEqual(res.BC[v], oracle.BC[v]) {
				t.Fatalf("workers=%d p=%d: BC[%d]=%g want %g", opt.Workers, opt.Procs, v, res.BC[v], oracle.BC[v])
			}
		}
	}
}

func TestWeightedOnlyMFBC(t *testing.T) {
	g := GridGraph(5, 5, 9, 1)
	oracle, err := Compute(g, Options{Engine: EngineBrandes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g, Options{Engine: EngineMFBC, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := range oracle.BC {
		if !almostEqual(res.BC[v], oracle.BC[v]) {
			t.Fatalf("BC[%d]=%g want %g", v, res.BC[v], oracle.BC[v])
		}
	}
	if _, err := Compute(g, Options{Engine: EngineCombBLAS}); err == nil {
		t.Fatal("combblas engine must reject weighted graphs")
	}
}

func TestSourcesBatchMode(t *testing.T) {
	g := UniformGraph(60, 300, false, 5)
	sources := []int32{3, 17, 42}
	partial, err := Compute(g, Options{Engine: EngineMFBC, Procs: 2, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Compute(g, Options{Engine: EngineBrandes, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	for v := range oracle.BC {
		if !almostEqual(partial.BC[v], oracle.BC[v]) {
			t.Fatalf("partial BC[%d]=%g want %g", v, partial.BC[v], oracle.BC[v])
		}
	}
}

// TestComputeRouting pins the one routing rule: the data layout picks the
// sweep, not the entry point. Exact, explicit-source and sampled runs at
// Procs ≤ 1 take the sequential path (no plan, zero Comm); the same inputs
// at Procs 4 run on the simulated machine (plan string, modeled flops).
// Every route matches the Brandes oracle and the others bit for bit.
func TestComputeRouting(t *testing.T) {
	g := GridGraph(7, 7, 8, 3)
	const k, seed = 12, 5
	explicit := make([]int32, k)
	for i := range explicit {
		explicit[i] = int32((i * 17) % g.N)
	}
	sampled := make([]int32, k)
	for i, v := range newPerm(g.N, seed)[:k] {
		sampled[i] = int32(v)
	}
	inputs := []struct {
		name    string
		sources []int32 // what the oracle sweeps
		scale   float64
		run     func(Options) (*Result, error)
	}{
		{"exact", nil, 1, func(o Options) (*Result, error) { return Compute(g, o) }},
		{"sources", explicit, 1, func(o Options) (*Result, error) {
			o.Sources = explicit
			return Compute(g, o)
		}},
		{"approximate", sampled, float64(g.N) / k, func(o Options) (*Result, error) { return ApproximateBC(g, k, seed, o) }},
	}
	routes := []struct {
		name    string
		opt     Options
		machine bool
	}{
		{"procs=0", Options{Batch: 5}, false},
		{"procs=1", Options{Batch: 5, Procs: 1}, false},
		{"procs=4", Options{Batch: 5, Procs: 4}, true},
	}
	for _, in := range inputs {
		oracle, err := Compute(g, Options{Engine: EngineBrandes, Sources: in.sources})
		if err != nil {
			t.Fatal(err)
		}
		var first *Result
		for _, rt := range routes {
			res, err := in.run(rt.opt)
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, rt.name, err)
			}
			if rt.machine && (res.Plan == "" || res.Comm.Flops == 0) {
				t.Errorf("%s %s: machine route reported plan %q, comm %+v", in.name, rt.name, res.Plan, res.Comm)
			}
			if !rt.machine && (res.Plan != "" || res.Comm != CommReport{}) {
				t.Errorf("%s %s: sequential route reported plan %q, comm %+v", in.name, rt.name, res.Plan, res.Comm)
			}
			if first == nil {
				first = res
			}
			for v := range oracle.BC {
				if !almostEqual(res.BC[v], oracle.BC[v]*in.scale) {
					t.Fatalf("%s %s: BC[%d]=%g want %g", in.name, rt.name, v, res.BC[v], oracle.BC[v]*in.scale)
				}
				if res.BC[v] != first.BC[v] {
					t.Fatalf("%s %s: BC[%d]=%v differs from %s's %v", in.name, rt.name, v, res.BC[v], routes[0].name, first.BC[v])
				}
			}
		}
	}
}

// TestSourcesOutOfRange: an explicit source that is not a vertex must come
// back as a one-line error from every engine, sequential and distributed —
// never as a panic, and never as a rank's recovered panic with its stack.
// An empty non-nil list is valid: zero batches, zero scores.
func TestSourcesOutOfRange(t *testing.T) {
	g := UniformGraph(52, 200, false, 5)
	for _, engine := range []Engine{EngineMFBC, EngineBrandes, EngineCombBLAS} {
		for _, procs := range []int{1, 4} {
			for _, bad := range []int32{-1, int32(g.N + 5)} {
				_, err := Compute(g, Options{Engine: engine, Procs: procs, Sources: []int32{3, bad}})
				want := fmt.Sprintf("source %d outside [0,%d)", bad, g.N)
				if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
					t.Errorf("%s p=%d source %d: error %q, want one line containing %q", engine, procs, bad, err, want)
				}
			}
			res, err := Compute(g, Options{Engine: engine, Procs: procs, Sources: []int32{}})
			if err != nil {
				t.Fatalf("%s p=%d empty sources: %v", engine, procs, err)
			}
			for v, x := range res.BC {
				if x != 0 {
					t.Fatalf("%s p=%d empty sources: BC[%d]=%g, want 0", engine, procs, v, x)
				}
			}
		}
	}
}

func TestNormalizeScores(t *testing.T) {
	g := UniformGraph(30, 120, false, 6)
	raw, err := Compute(g, Options{Engine: EngineMFBC})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := Compute(g, Options{Engine: EngineMFBC, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	scale := float64(g.N-1) * float64(g.N-2)
	for v := range raw.BC {
		if !almostEqual(norm.BC[v]*scale, raw.BC[v]) {
			t.Fatalf("normalization wrong at %d", v)
		}
		if norm.BC[v] < 0 || norm.BC[v] > 1 {
			t.Fatalf("normalized score %g outside [0,1]", norm.BC[v])
		}
	}
}

func TestTopK(t *testing.T) {
	bc := []float64{1, 9, 3, 9, 0}
	top := TopK(bc, 3)
	if len(top) != 3 || top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Fatalf("TopK = %v", top)
	}
	if got := TopK(bc, 99); len(got) != len(bc) {
		t.Fatal("TopK must clamp k")
	}
}

func TestCommReportPopulated(t *testing.T) {
	g := RMATGraph(7, 8, 9)
	res, err := Compute(g, Options{Engine: EngineMFBC, Procs: 8, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Bytes == 0 || res.Comm.Msgs == 0 || res.Comm.Flops == 0 {
		t.Fatalf("comm report empty: %+v", res.Comm)
	}
	if res.Plan == "" || res.Iterations == 0 {
		t.Fatal("metadata missing")
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := RMATGraph(6, 6, 11)
	if err := graph.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	h, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != g.N || h.M() != g.M() {
		t.Fatal("file round trip changed the graph")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownEngine(t *testing.T) {
	g := UniformGraph(10, 20, false, 1)
	if _, err := Compute(g, Options{Engine: "nope"}); err == nil {
		t.Fatal("unknown engine must fail")
	}
	if _, err := Compute(nil, Options{}); err == nil {
		t.Fatal("nil graph must fail")
	}
}

// TestApproximateBC checks the sampling estimator: unbiased scaling and a
// sane top-vertex on a structured graph.
func TestApproximateBC(t *testing.T) {
	// On a star graph every source contributes identically, so sampling
	// must reproduce the exact (scaled) answer.
	star := &Graph{Name: "star", N: 21}
	for i := 1; i < 21; i++ {
		star.Edges = append(star.Edges, Edge{U: 0, V: int32(i), W: 1})
	}
	exact, err := Compute(star, Options{Engine: EngineBrandes})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ApproximateBC(star, 5, 3, Options{Engine: EngineMFBC})
	if err != nil {
		t.Fatal(err)
	}
	// Spokes are interchangeable: hub estimate must be within 25% even
	// with 5 of 21 samples (only the hub-vs-spoke source mix varies).
	if approx.BC[0] < exact.BC[0]*0.7 || approx.BC[0] > exact.BC[0]*1.3 {
		t.Fatalf("hub estimate %g far from exact %g", approx.BC[0], exact.BC[0])
	}
	if top := TopK(approx.BC, 1); top[0] != 0 {
		t.Fatalf("approximation missed the hub: top=%d", top[0])
	}
	// samples ≥ n degenerates to the exact computation.
	full, err := ApproximateBC(star, 100, 3, Options{Engine: EngineMFBC})
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact.BC {
		if !almostEqual(full.BC[v], exact.BC[v]) {
			t.Fatal("full-sample approximation must be exact")
		}
	}
	if _, err := ApproximateBC(star, 0, 1, Options{}); err == nil {
		t.Fatal("zero samples must fail")
	}
}

// TestApproximateBCErrBound: a sampled estimate carries a positive
// Hoeffding half-width that tightens as the budget grows, is 0 once the
// budget covers every vertex (the answer is exact), and is normalized with
// the scores.
func TestApproximateBCErrBound(t *testing.T) {
	g := RMATGraph(6, 8, 3)
	bound := func(k int, opt Options) float64 {
		t.Helper()
		r, err := ApproximateBC(g, k, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r.ErrBound
	}
	small, big := bound(8, Options{}), bound(32, Options{})
	if !(small > 0) || !(big > 0) {
		t.Fatalf("sampled estimates must carry positive bounds: k=8 → %v, k=32 → %v", small, big)
	}
	if big >= small {
		t.Fatalf("a larger budget must tighten the bound: k=8 → %v, k=32 → %v", small, big)
	}
	if got := bound(g.N, Options{}); got != 0 {
		t.Fatalf("samples ≥ n is exact, bound %v", got)
	}
	scale := 1 / (float64(g.N-1) * float64(g.N-2))
	if got := bound(8, Options{Normalize: true}); got != small*scale {
		t.Fatalf("normalized bound %v, want %v·%v = %v", got, small, scale, small*scale)
	}
	if exact, err := Compute(g, Options{}); err != nil || exact.ErrBound != 0 {
		t.Fatalf("exact Compute bound %v (err %v), want 0", exact.ErrBound, err)
	}
}

// TestNilGraph: every entry point that takes a graph rejects nil with the
// same error, before touching it.
func TestNilGraph(t *testing.T) {
	for name, call := range map[string]func() error{
		"Compute":       func() error { _, err := Compute(nil, Options{}); return err },
		"ApproximateBC": func() error { _, err := ApproximateBC(nil, 4, 1, Options{}); return err },
	} {
		if err := call(); err == nil || err.Error() != "repro: nil graph" {
			t.Errorf("%s(nil) = %v, want repro: nil graph", name, err)
		}
	}
}

// TestBadPlanRejected: a forced plan that does not tile Procs is refused by
// both machine entry points that take one (the façade takes none) with the
// same one-line error, before any rank starts rather than as a rank's panic
// inside the region.
func TestBadPlanRejected(t *testing.T) {
	g := GridGraph(4, 4, 1, 1)
	opt := core.DistOptions{Procs: 4, Plan: &spgemm.Plan{P1: 2, P2: 1, P3: 1}}
	const want = "core: plan 2x1x1/X=A/YZ=AB does not tile 4 processors"
	for name, call := range map[string]func() error{
		"MFBCDistributed": func() error { _, err := core.MFBCDistributed(g, opt); return err },
		"NewDistSession":  func() error { _, err := core.NewDistSession(g, opt); return err },
	} {
		if err := call(); err == nil || err.Error() != want {
			t.Errorf("%s = %v, want %s", name, err, want)
		}
	}
}

// TestValidateRejectsDuplicateEdges: on a graph that lists (0,1) twice the
// algebraic engines used to see one edge and the traversal two, and
// Compute returned [1 1 1 1] or [1.33 1.33 0.67 0.67] with a nil error
// depending on Engine. Every engine now refuses it, naming the edge.
func TestValidateRejectsDuplicateEdges(t *testing.T) {
	g := &Graph{Name: "dup", N: 4, Edges: []Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 2, V: 3, W: 1},
	}}
	for _, opt := range []Options{
		{Engine: EngineMFBC}, {Engine: EngineMFBC, Procs: 4},
		{Engine: EngineBrandes}, {Engine: EngineCombBLAS},
	} {
		res, err := Compute(g, opt)
		if err == nil || !strings.Contains(err.Error(), `graph "dup": duplicate edge (0,1)`) {
			t.Errorf("%s procs=%d: Compute = %v, %v; want the duplicate-edge error", opt.Engine, opt.Procs, res, err)
		}
	}
}
