package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

func scoresAlmostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if diff > 1e-9*scale {
			return false
		}
	}
	return true
}

// TestMutateBumpsVersionAndSeedsWarmScores: a mutation batch must replace
// the registry entry with a new version, purge the stale cache, and seed
// the dynamic engine's maintained scores so the next default exact query
// is a cache hit with no recompute.
func TestMutateBumpsVersionAndSeedsWarmScores(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(5, 5, 1, 1)
	info, err := s.AddGraph("g", g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(QueryRequest{Graph: "g"}); err != nil {
		t.Fatal(err)
	}

	muts := []repro.Mutation{
		{Op: repro.MutAddEdge, U: 0, V: 24, W: 1},
		{Op: repro.MutRemoveEdge, U: 0, V: 1},
	}
	res, err := s.MutateCtx(context.Background(), "g", muts)
	if err != nil {
		t.Fatal(err)
	}
	if res.OldVersion != info.Version || res.Version == info.Version {
		t.Fatalf("version bookkeeping: %+v (registered %016x)", res, info.Version)
	}
	if res.Applied != 2 || res.M != g.M() {
		t.Fatalf("mutate result: %+v (want applied=2, m=%d)", res, g.M())
	}
	ni, err := s.GraphInfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if ni.Version != res.Version || ni.M != g.M() {
		t.Fatalf("registry not updated: %+v vs %+v", ni, res)
	}

	st := scrape(t, s)
	if st.get(`mfbc_mutations_total`) != 1 || st.warmSeeds() != 2 ||
		st.get(`mfbc_warm_seeds_total{variant="exact"}`) != 1 || st.get(`mfbc_warm_seeds_total{variant="normalized"}`) != 1 || st.get(`mfbc_warm_seeds_total{variant="topk"}`) != 2 {
		t.Fatalf("stats = %+v", st)
	}
	computesBefore := st.get(`mfbc_computes_total`)

	qr, err := s.Query(QueryRequest{Graph: "g", IncludeScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Stats.CacheHit {
		t.Fatal("post-mutation default exact query missed the warm-seeded cache")
	}
	if qr.Version != res.Version {
		t.Fatalf("query version %016x, want %016x", qr.Version, res.Version)
	}
	// The normalized variant is a warm hit too (seeded as a cheap
	// transform of the same maintained vector), as is a top-k request on
	// either entry.
	qn, err := s.Query(QueryRequest{Graph: "g", Normalize: true, K: 3, IncludeScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if !qn.Stats.CacheHit {
		t.Fatal("post-mutation normalized query missed the warm-seeded cache")
	}
	if len(qn.TopK) != 3 {
		t.Fatalf("normalized top-k = %+v", qn.TopK)
	}
	if got := metric(t, s, `mfbc_computes_total`); got != computesBefore {
		t.Fatalf("warm hit still computed: %v → %v", computesBefore, got)
	}

	// The warm scores are the real thing: compare against from-scratch,
	// raw and normalized.
	shadow := g.Clone()
	if _, err := shadow.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	want, err := repro.Compute(shadow, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !scoresAlmostEqual(qr.Scores, want.BC) {
		t.Fatal("warm-seeded scores differ from a from-scratch compute")
	}
	wantNorm, err := repro.Compute(shadow, repro.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !scoresAlmostEqual(qn.Scores, wantNorm.BC) {
		t.Fatal("warm-seeded normalized scores differ from a from-scratch normalized compute")
	}
}

// TestMutateDistributedMode: with DynProcs configured, PATCHes run their
// re-computation on the simulated machine — the result reports modeled
// communication and a plan, the maintained scores still match from-scratch
// computes, and the procs-variant cache keys are warm-seeded alongside the
// sequential ones.
func TestMutateDistributedMode(t *testing.T) {
	s := New(Config{Workers: 1, DynProcs: 2})
	g := repro.GridGraph(5, 5, 3, 7)
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	muts := []repro.Mutation{
		{Op: repro.MutSetWeight, U: g.Edges[10].U, V: g.Edges[10].V, W: 9},
		{Op: repro.MutAddEdge, U: 0, V: 24, W: 2},
	}
	res, err := s.MutateCtx(context.Background(), "g", muts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs != 2 || res.Plan == "" {
		t.Fatalf("distributed mutate reported procs=%d plan=%q", res.Procs, res.Plan)
	}
	if res.Comm.Bytes == 0 || res.Comm.ModelSec == 0 {
		t.Fatalf("distributed mutate reported no modeled communication: %+v", res.Comm)
	}

	st := scrape(t, s)
	if st.warmSeeds() != 4 || st.get(`mfbc_warm_seeds_total{variant="distributed"}`) != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Both the sequential default key and the procs-variant are warm.
	q1, err := s.Query(QueryRequest{Graph: "g", IncludeScores: true})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Query(QueryRequest{Graph: "g", Procs: 2, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !q1.Stats.CacheHit || !q2.Stats.CacheHit {
		t.Fatalf("post-mutation hits: default=%v procs=%v", q1.Stats.CacheHit, q2.Stats.CacheHit)
	}
	if q2.Procs != 2 || q2.Plan == "" {
		t.Fatalf("procs-variant entry lost its distributed metadata: %+v", q2)
	}

	shadow := g.Clone()
	if _, err := shadow.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	want, err := repro.Compute(shadow, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !scoresAlmostEqual(q1.Scores, want.BC) {
		t.Fatal("distributed-mode maintained scores differ from from-scratch compute")
	}
	// The precomputed ranking must agree with a fresh selection.
	wantTop := repro.TopK(want.BC, 4)
	for i, vs := range q2.TopK {
		if vs.Vertex != wantTop[i] {
			t.Fatalf("seeded ranking diverged at %d: %+v vs %v", i, q2.TopK, wantTop)
		}
	}
}

// TestWarmSeedTinyCacheKeepsExactKey: with a cache bound smaller than the
// variant count, the default exact entry must be the one that survives
// (variants are seeded in ascending priority).
func TestWarmSeedTinyCacheKeepsExactKey(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 1, DynProcs: 2})
	g := repro.GridGraph(4, 4, 1, 1)
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MutateCtx(context.Background(), "g", []repro.Mutation{{Op: repro.MutAddEdge, U: 0, V: 15, W: 1}}); err != nil {
		t.Fatal(err)
	}
	computes := metric(t, s, `mfbc_computes_total`)
	q, err := s.Query(QueryRequest{Graph: "g", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Stats.CacheHit || metric(t, s, `mfbc_computes_total`) != computes {
		t.Fatalf("default exact query after mutation on cache=1 recomputed: hit=%v", q.Stats.CacheHit)
	}
}

// TestMutateInvalidatesOnlyThatGraph: entries of other graphs must survive
// a mutation's purge.
func TestMutateInvalidatesOnlyThatGraph(t *testing.T) {
	s := New(Config{Workers: 1})
	for _, name := range []string{"a", "b"} {
		if _, err := s.AddGraph(name, repro.GridGraph(4, 4, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Query(QueryRequest{Graph: name}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.MutateCtx(context.Background(), "a", []repro.Mutation{{Op: repro.MutAddEdge, U: 0, V: 15, W: 1}}); err != nil {
		t.Fatal(err)
	}
	qb, err := s.Query(QueryRequest{Graph: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !qb.Stats.CacheHit {
		t.Fatal("mutating graph a dropped graph b's cache entry")
	}
	qa, err := s.Query(QueryRequest{Graph: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !qa.Stats.CacheHit { // warm seed, not the stale pre-mutation entry
		t.Fatal("graph a's warm seed missing")
	}
	if evicted := metric(t, s, `mfbc_cache_evictions_total`); evicted != 1 {
		t.Fatalf("evictions = %v, want exactly graph a's stale entry", evicted)
	}
}

// TestMutateErrors: unknown graphs, empty batches, and invalid mutations
// must fail without touching state — and an invalid batch is turned away
// by shadow validation before any engine exists, so it never pays for the
// engine's initial exact compute.
func TestMutateErrors(t *testing.T) {
	engines := 0
	s := New(Config{Workers: 1, NewDynamic: func(_ string, g *repro.Graph, opt repro.DynamicOptions) (DynEngine, error) {
		engines++
		return repro.NewDynamicBC(g, opt)
	}})
	if _, err := s.MutateCtx(context.Background(), "nope", []repro.Mutation{{Op: repro.MutAddVertex}}); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("unknown graph: %v", err)
	}
	info, err := s.AddGraph("g", repro.GridGraph(3, 3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MutateCtx(context.Background(), "g", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := s.MutateCtx(context.Background(), "g", []repro.Mutation{
		{Op: repro.MutAddEdge, U: 0, V: 8, W: 1},
		{Op: repro.MutAddEdge, U: 0, V: 99, W: 1},
	}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	ni, err := s.GraphInfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if ni.Version != info.Version {
		t.Fatal("failed batch changed the registered version")
	}
	if st := scrape(t, s); st.get(`mfbc_mutations_total`) != 0 || st.get(`mfbc_ingest_group_commits_total`) != 0 || st.get(`mfbc_ingest_batch_errors_total`) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.mu.Lock()
	attached := s.graphs["g"].dyn != nil
	s.mu.Unlock()
	if engines != 0 || attached {
		t.Fatalf("invalid first batch built %d engine(s) (attached: %v), want none", engines, attached)
	}
	if _, err := s.MutateCtx(context.Background(), "g", []repro.Mutation{{Op: repro.MutAddVertex}}); err != nil {
		t.Fatalf("valid batch after failed one: %v", err)
	}
	if engines != 1 {
		t.Fatalf("engines built = %d, want 1 for the first valid batch", engines)
	}
}

// TestMutationsSurviveAcrossBatches: the dynamic engine persists across
// Mutate calls, so successive batches apply incrementally to the evolving
// topology (not to the originally registered graph).
func TestMutationsSurviveAcrossBatches(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(4, 4, 1, 1)
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	shadow := g.Clone()
	batches := [][]repro.Mutation{
		{{Op: repro.MutAddEdge, U: 0, V: 15, W: 1}},
		{{Op: repro.MutRemoveEdge, U: 0, V: 15}},
		{{Op: repro.MutAddVertex}, {Op: repro.MutAddEdge, U: 5, V: 16, W: 1}},
	}
	var last *MutateResult
	for _, b := range batches {
		var err error
		last, err = s.MutateCtx(context.Background(), "g", b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shadow.ApplyAll(b); err != nil {
			t.Fatal(err)
		}
	}
	if last.Version != repro.Fingerprint(shadow) {
		t.Fatal("server graph diverged from sequential replay")
	}
	if last.N != 17 {
		t.Fatalf("n = %d after add_vertex, want 17", last.N)
	}
	q, err := s.Query(QueryRequest{Graph: "g", IncludeScores: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.Compute(shadow, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !scoresAlmostEqual(q.Scores, want.BC) {
		t.Fatal("served scores differ from from-scratch compute on the evolved graph")
	}
}

// TestConcurrentQueriesDuringMutations is the torn-state acceptance test:
// readers hammering Query while mutation batches apply must only ever see
// (version, scores) pairs matching one committed version — old or new,
// never a mix. Run under -race in CI.
func TestConcurrentQueriesDuringMutations(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(5, 5, 1, 1)
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}

	batches := [][]repro.Mutation{
		{{Op: repro.MutAddEdge, U: 0, V: 24, W: 1}},
		{{Op: repro.MutRemoveEdge, U: 0, V: 1}, {Op: repro.MutAddEdge, U: 3, V: 17, W: 1}},
		{{Op: repro.MutAddEdge, U: 7, V: 21, W: 1}},
		{{Op: repro.MutRemoveEdge, U: 3, V: 17}},
	}
	expect := make(map[uint64][]float64)
	shadow := g.Clone()
	record := func() {
		want, err := repro.Compute(shadow, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		expect[repro.Fingerprint(shadow)] = want.BC
	}
	record()
	for _, b := range batches {
		if _, err := shadow.ApplyAll(b); err != nil {
			t.Fatal(err)
		}
		record()
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 16)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query(QueryRequest{Graph: "g", IncludeScores: true})
				if err != nil {
					fail <- "query error: " + err.Error()
					return
				}
				want, ok := expect[res.Version]
				if !ok {
					fail <- "reader saw a version that was never committed"
					return
				}
				if !scoresAlmostEqual(res.Scores, want) {
					fail <- "reader saw scores inconsistent with their version (torn state)"
					return
				}
			}
		}()
	}
	for _, b := range batches {
		if _, err := s.MutateCtx(context.Background(), "g", b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if st := scrape(t, s); st.get(`mfbc_mutations_total`) != float64(len(batches)) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHTTPMutateRoute drives PATCH /graphs/{name} end to end, including
// the error statuses (404 unknown graph, 400 invalid op, 413 oversized
// body — the decodeJSON fix).
func TestHTTPMutateRoute(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	doJSON(t, ts, "POST", "/graphs/demo",
		GraphSpec{Kind: "grid", Rows: 4, Cols: 4}, http.StatusCreated, nil)
	var before GraphInfo
	doJSON(t, ts, "GET", "/graphs/demo", nil, http.StatusOK, &before)

	var res MutateResult
	doJSON(t, ts, "PATCH", "/graphs/demo", MutateRequest{Mutations: []repro.Mutation{
		{Op: repro.MutAddEdge, U: 0, V: 15, W: 1},
	}}, http.StatusOK, &res)
	if res.Version == before.Version || res.M != before.M+1 {
		t.Fatalf("mutate result %+v vs before %+v", res, before)
	}
	var after GraphInfo
	doJSON(t, ts, "GET", "/graphs/demo", nil, http.StatusOK, &after)
	if after.Version != res.Version || after.M != res.M {
		t.Fatalf("GET after PATCH: %+v vs %+v", after, res)
	}

	doJSON(t, ts, "PATCH", "/graphs/ghost", MutateRequest{Mutations: []repro.Mutation{
		{Op: repro.MutAddVertex},
	}}, http.StatusNotFound, nil)
	doJSON(t, ts, "PATCH", "/graphs/demo", MutateRequest{Mutations: []repro.Mutation{
		{Op: "bogus"},
	}}, http.StatusBadRequest, nil)

	// Oversized body: decodeJSON must surface MaxBytesError as 413.
	huge := `{"mutations":[` + strings.Repeat(`{"op":"add_vertex"},`, 1<<17)
	req, err := http.NewRequest("PATCH", ts.URL+"/graphs/demo", bytes.NewReader([]byte(huge)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

// TestMutateFusedPhasesAndStats: an incremental distributed PATCH runs as
// one fused machine region — the response carries the fused flag and the
// diff/patch/sweep/reduce phase attribution, and /metrics aggregates fused
// applies across engines.
func TestMutateFusedPhasesAndStats(t *testing.T) {
	s := New(Config{Workers: 1, DynProcs: 2, DirtyThreshold: -1})
	g := repro.GridGraph(5, 5, 3, 7)
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	res, err := s.MutateCtx(context.Background(), "g", []repro.Mutation{
		{Op: repro.MutSetWeight, U: g.Edges[3].U, V: g.Edges[3].V, W: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "incremental" || !res.Fused {
		t.Fatalf("expected a fused incremental apply, got %+v", res)
	}
	names := map[string]bool{}
	for _, ph := range res.Phases {
		names[ph.Name] = true
	}
	for _, want := range []string{"diff", "patch", "sweep", "reduce"} {
		if !names[want] {
			t.Fatalf("PATCH response missing phase %q: %+v", want, res.Phases)
		}
	}
	if st := scrape(t, s); st.get(`mfbc_dyn_fused_applies`) != 1 {
		t.Fatalf("stats must count the fused apply: %+v", st)
	}
}
