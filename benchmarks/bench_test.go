package main

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/obs"
)

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	sz := sizesFor(24, true)
	for _, w := range workloadNames {
		a, err := newScript(w, 1, sz)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newScript(w, 1, sz)
		c, _ := newScript(w, 2, sz)
		if !bytes.Equal(a.bytes(), b.bytes()) {
			t.Errorf("%s: two scripts from seed 1 differ", w)
		}
		if bytes.Equal(a.bytes(), c.bytes()) {
			t.Errorf("%s: seeds 1 and 2 give the same script", w)
		}
	}
	if _, err := newScript("no-such-workload", 1, sz); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestIterationCountsFollowSeconds(t *testing.T) {
	a, b := sizesFor(24, false), sizesFor(48, false)
	if b.seqIters != 2*a.seqIters || b.streamBatches != 2*a.streamBatches {
		t.Errorf("doubling -seconds: seq %d→%d, stream %d→%d", a.seqIters, b.seqIters, a.streamBatches, b.streamBatches)
	}
	if sizesFor(24, false) != a {
		t.Error("sizes are not a pure function of -seconds")
	}
	if got := sizesFor(1, false).seqIters; got != 5 {
		t.Errorf("floor: %d iterations at 1 s, want 5", got)
	}
}

func TestPercentileAndCalibration(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile reordered its input")
	}
	// A section timed while the calibrator ran 25% slow is reported 20% shorter.
	if got := calibrated(1.0, 0.125, 0.100); math.Abs(got-0.8) > 1e-15 {
		t.Errorf("calibrated = %v, want 0.8", got)
	}
	if got := calibrated(1.0, 0.125, 0); got != 1.0 {
		t.Errorf("calibrated without a reference = %v, want the raw time", got)
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if !closeEnough(1+1e-10, 1) || closeEnough(1+1e-8, 1) || !closeEnough(1e-10, 0) || closeEnough(1e-8, 0) || closeEnough(math.NaN(), 0) {
		t.Error("closeEnough is not 1e-9 relative, absolute at zero")
	}
}

func TestCalibratorIsBrandesAndAllocatesNothing(t *testing.T) {
	weighted := graph.Grid2D(6, 7, 9, 3)
	unweighted := graph.RMAT(graph.DefaultRMAT(7, 4, 5))
	directed := graph.Uniform(60, 240, true, 7)
	for _, g := range []*graph.Graph{weighted, unweighted, directed, weightedMesh(6)} {
		var b brandes
		b.load(g)
		got := make([]float64, g.N)
		b.all(got)
		if want := baseline.Brandes(g); !scoresMatch(got, want) {
			t.Errorf("%s: calibrator disagrees with baseline.Brandes", g.Name)
		}
		src := []int32{0, int32(g.N / 2), int32(g.N - 1)}
		b.run(src, got)
		if want := baseline.BrandesSources(g, src); !scoresMatch(got, want) {
			t.Errorf("%s: calibrator disagrees with baseline.BrandesSources", g.Name)
		}
		if n := testing.AllocsPerRun(3, func() { b.load(g); b.run(src, got); b.all(got) }); n != 0 {
			t.Errorf("%s: a calibrator pass allocates %v objects after its first call", g.Name, n)
		}
	}
}

func TestMutationClasses(t *testing.T) {
	g := weightedMesh(12)
	batches, classes := reweightBatches(g, subRNG(1, 13), 12, []string{classLocal, classArterial})
	shadow := g.Clone()
	var b brandes
	var usage []int
	for i, batch := range batches {
		if i%2 == 0 { // the generator takes usage at the start of each round of classes
			b.load(shadow)
			usage = b.edgeUsage(len(shadow.Edges))
		}
		m := batch[0]
		used := -1
		for id, e := range shadow.Edges {
			if e.U == m.U && e.V == m.V {
				used = usage[id]
			}
		}
		if lo, hi := classBand(classes[i], g.N); outside(used, lo, hi) != 0 {
			t.Errorf("batch %d: edge used by %d of %d sources is not %s", i, used, g.N, classes[i])
		}
		if m.W != weightGrid(m.W) {
			t.Errorf("batch %d: weight %v is off the weight grid", i, m.W)
		}
		if _, err := shadow.ApplyAll(batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

func TestRecorderSelfTimeAndCoverage(t *testing.T) {
	r := &recorder{t0: time.Now()}
	r.spans = []spanRecord{
		{ID: 1, Name: "iter", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "op", StartUS: 10, EndUS: 60},
		{ID: 3, Parent: 1, Name: "op", StartUS: 50, EndUS: 80}, // overlaps its sibling
		{ID: 4, Name: "iter", StartUS: 150, EndUS: 200},
	}
	self := r.selfTimes()
	if self["iter"] != 30+50 || self["op"] != 50+30 {
		t.Errorf("self times %v, want iter 80, op 80", self)
	}
	if got := r.coverage(0, 200*time.Microsecond); got != 0.75 {
		t.Errorf("coverage = %v, want 0.75", got)
	}
	r.mergeObs(&span{r: r, id: 4}, [][]obs.SpanRecord{{
		{Span: "s02", Parent: "s01", Name: "child", StartUS: 5, DurUS: 10},
		{Span: "s01", Name: "root", StartUS: 0, DurUS: 40},
	}})
	root, child := r.spans[5], r.spans[4]
	if root.Parent != 4 || child.Parent != root.ID || child.StartUS != 155 || child.EndUS != 165 || root.Origin != "obs" {
		t.Errorf("merged spans %+v %+v", child, root)
	}
}

func TestBurstVerify(t *testing.T) {
	ok := burstResult{hits: []float64{1}, hotSeen: []uint64{7, 8}, coldSeen: []uint64{3}}
	if err := ok.verify(7, 8, 3); err != nil {
		t.Error(err)
	}
	for name, b := range map[string]burstResult{
		"went back":     {hotSeen: []uint64{8, 7}, coldSeen: []uint64{3}},
		"unknown":       {hotSeen: []uint64{9}, coldSeen: []uint64{3}},
		"cold moved":    {hotSeen: []uint64{7}, coldSeen: []uint64{4}},
		"not a hit":     {hotSeen: []uint64{7}, coldSeen: []uint64{3}, notHit: 1},
		"request error": {err: errors.New("connection reset")},
	} {
		if b.verify(7, 8, 3) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// declared returns the metric names BENCHMARK.json declares, sorted.
func declared(t *testing.T) (e2e, layer []string, spec *benchSpec) {
	t.Helper()
	spec, err := readBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	return e2e, layer, spec
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	_, _, spec := declared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef, specName, specUnit, specBetter string) {
		if d.name != specName || d.unit != specUnit || d.better != specBetter {
			t.Errorf("catalogue has %v, BENCHMARK.json has {%s %s %s}", d, specName, specUnit, specBetter)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("bad or repeated metric %v", d)
		}
		seen[d.name] = true
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the catalogue %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		check(endToEnd[i], m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		check(perLayer[i], m.Name, m.Unit, m.Better)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads", len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeRunsEmitExactlyTheDeclaredMetrics runs every workload at smoke
// size, untraced and traced, on seeds 1 and 2 (the held-out seed).
func TestSmokeRunsEmitExactlyTheDeclaredMetrics(t *testing.T) {
	e2e, layer, _ := declared(t)
	sz := sizesFor(24, true)
	for _, w := range workloadNames {
		for seed := int64(1); seed <= 2; seed++ {
			res, err := untracedRun(w, seed, sz, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s seed %d: correct=%v attempted=%d failed=%d", w, seed, res.Correct, res.Attempted, res.Failed)
			}
			if got := keys(res.Metrics); !equal(got, e2e) {
				t.Errorf("%s seed %d untraced: metrics %v, declared %v", w, seed, got, e2e)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s seed %d: end-to-end metric %s = %v", w, seed, name, m.Value)
				}
			}
			file := filepath.Join(t.TempDir(), w+".trace.jsonl")
			res, err = tracedRun(w, seed, sz, 0, file)
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", w, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s seed %d traced: correct=%v failed=%d", w, seed, res.Correct, res.Failed)
			}
			if got := keys(res.Metrics); !equal(got, layer) {
				t.Errorf("%s seed %d traced: metrics %v, declared %v", w, seed, got, layer)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s seed %d: per-layer metric %s = %v", w, seed, name, m.Value)
				}
			}
			if cov := res.Metrics["bench.span_coverage_pct"].Value; cov < 95 {
				t.Errorf("%s seed %d: top-level spans cover %.1f%% of the timed wall", w, seed, cov)
			}
		}
	}
}
