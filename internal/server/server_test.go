package server

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

func testGraph(t *testing.T) *repro.Graph {
	t.Helper()
	return repro.UniformGraph(40, 160, false, 1)
}

func addGraph(t *testing.T, s *Server, name string, g *repro.Graph) GraphInfo {
	t.Helper()
	info, err := s.AddGraph(name, g)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// scraped is one parsed exposition of a server's registry: the bytes GET
// /metrics serves, read back through obs.ParseText — the one reader every
// counter assertion in this package goes through.
type scraped struct {
	t testing.TB
	obs.Samples
}

func scrape(t testing.TB, s *Server) scraped {
	t.Helper()
	samples, err := obs.ParseText(s.Registry().Text())
	if err != nil {
		t.Fatal(err)
	}
	return scraped{t, samples}
}

// get returns one series' value, failing the test when the exposition does
// not carry it, so a misspelt name cannot read as zero.
func (sc scraped) get(series string) float64 {
	sc.t.Helper()
	v, ok := sc.Samples[series]
	if !ok {
		sc.t.Fatalf("no series %s in the exposition", series)
	}
	return v
}

// String renders the non-zero server counters and gauges (histogram
// expansions left out) for failure messages.
func (sc scraped) String() string {
	var rows []string
	for series, v := range sc.Samples {
		name, _, _ := strings.Cut(series, "{")
		if v == 0 || !strings.HasPrefix(name, "mfbc_") || strings.HasSuffix(name, "_bucket") ||
			strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count") {
			continue
		}
		rows = append(rows, fmt.Sprintf("%s=%v", series, v))
	}
	sort.Strings(rows)
	return strings.Join(rows, " ")
}

// warmSeeds sums the score-bearing warm-seed variants (top-k rankings
// ride on entries the other three already count).
func (sc scraped) warmSeeds() float64 {
	sc.t.Helper()
	sum := 0.0
	for _, v := range []string{"exact", "normalized", "distributed"} {
		sum += sc.get(`mfbc_warm_seeds_total{variant="` + v + `"}`)
	}
	return sum
}

// metric scrapes s and returns one series.
func metric(t testing.TB, s *Server, series string) float64 {
	t.Helper()
	return scrape(t, s).get(series)
}

// waitFor polls cond for up to 5s; the race detector slows everything down,
// so no assertion rides on a single sleep.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueryMatchesDirectCompute(t *testing.T) {
	g := testGraph(t)
	s := New(Config{Workers: 1})
	info := addGraph(t, s, "g", g)
	if info.Version != repro.Fingerprint(g) {
		t.Fatal("registered version must be the structural fingerprint")
	}

	res, err := s.Query(QueryRequest{Graph: "g", K: 5, IncludeScores: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.Compute(g, repro.Options{Engine: repro.EngineMFBC, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != g.N {
		t.Fatalf("scores length %d want %d", len(res.Scores), g.N)
	}
	for v := range want.BC {
		if res.Scores[v] != want.BC[v] {
			t.Fatalf("score[%d]=%g want %g", v, res.Scores[v], want.BC[v])
		}
	}
	wantTop := repro.TopK(want.BC, 5)
	if len(res.TopK) != 5 {
		t.Fatalf("topk length %d", len(res.TopK))
	}
	for i, vs := range res.TopK {
		if vs.Vertex != wantTop[i] || vs.Score != want.BC[wantTop[i]] {
			t.Fatalf("topk[%d] = %+v want vertex %d score %g", i, vs, wantTop[i], want.BC[wantTop[i]])
		}
	}
	if res.Stats.CacheHit || res.Stats.Coalesced {
		t.Fatalf("first query can be neither cache hit nor coalesced: %+v", res.Stats)
	}
}

func TestCacheHitSecondQuery(t *testing.T) {
	s := New(Config{Workers: 1})
	addGraph(t, s, "g", testGraph(t))

	first, err := s.Query(QueryRequest{Graph: "g", Procs: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Query(QueryRequest{Graph: "g", Procs: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit {
		t.Fatal("identical repeat query must be a cache hit")
	}
	if second.Stats.ComputeMS != first.Stats.ComputeMS {
		t.Fatal("cache hit must report the original compute wall time")
	}
	// Presentation-only parameters share the cached scores.
	third, err := s.Query(QueryRequest{Graph: "g", Procs: 2, K: 7, IncludeScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Stats.CacheHit {
		t.Fatal("changing only k/include_scores must still hit the cache")
	}
	st := scrape(t, s)
	if st.get(`mfbc_computes_total`) != 1 || st.get(`mfbc_query_cache_hits_total`) != 2 || st.get(`mfbc_queries_total`) != 3 {
		t.Fatalf("stats = %+v, want 1 compute, 2 hits, 3 queries", st)
	}
	if first.Plan == "" || first.Iterations == 0 {
		t.Fatalf("distributed metadata missing: %+v", first)
	}
	if first.Stats.Comm.Bytes == 0 {
		t.Fatal("distributed query must carry a modeled comm report")
	}
}

// TestSingleFlight is the acceptance test of the tentpole: k concurrent
// identical queries perform exactly one underlying compute and every caller
// receives identical scores. Run with -race.
func TestSingleFlight(t *testing.T) {
	const callers = 12
	g := testGraph(t)
	s := New(Config{Workers: 1})
	addGraph(t, s, "g", g)

	var computes atomic.Int64
	release := make(chan struct{})
	s.computeExact = func(g *repro.Graph, opt repro.Options) (*repro.Result, error) {
		computes.Add(1)
		<-release // hold the flight open until every caller has joined it
		return repro.Compute(g, opt)
	}

	req := QueryRequest{Graph: "g", Batch: 16, IncludeScores: true}
	results := make([]*QueryResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Query(req)
		}(i)
	}
	waitFor(t, "all waiters to coalesce", func() bool {
		return metric(t, s, `mfbc_query_coalesced_total`) == callers-1
	})
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("observed %d computes, want exactly 1", n)
	}
	coalesced := 0
	for i, res := range results {
		for v := range results[0].Scores {
			if res.Scores[v] != results[0].Scores[v] {
				t.Fatalf("caller %d got different scores at vertex %d", i, v)
			}
		}
		if res.Stats.Coalesced {
			coalesced++
		} else if res.Stats.CacheHit {
			t.Fatalf("caller %d reported a cache hit during a held flight", i)
		}
	}
	if coalesced != callers-1 {
		t.Fatalf("%d callers coalesced, want %d", coalesced, callers-1)
	}
	if st := scrape(t, s); st.get(`mfbc_computes_total`) != 1 || st.get(`mfbc_in_flight`) != 0 {
		t.Fatalf("stats after flight: %+v", st)
	}
}

// TestComputePanicContained: a panic inside the single-flight leader's
// engine run fails that flight with ErrInternal (HTTP 500) for the leader
// and for a waiter already parked on it, removes the flight so the next
// query for the same key computes normally, counts
// mfbc_panics_total{site="query.compute"}, and leaves no goroutine behind.
func TestComputePanicContained(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	addGraph(t, s, "g", testGraph(t))

	release := make(chan struct{})
	var runs atomic.Int64
	s.computeExact = func(g *repro.Graph, opt repro.Options) (*repro.Result, error) {
		if runs.Add(1) == 1 {
			<-release // hold the flight open until the waiter has joined it
			panic("kernel exploded")
		}
		return repro.Compute(g, opt)
	}

	mux := NewMux(s)
	lead := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rw := httptest.NewRecorder()
		mux.ServeHTTP(rw, httptest.NewRequest("POST", "/query", strings.NewReader(`{"graph":"g","k":3}`)))
		lead <- rw
	}()
	waitFor(t, "leader's compute to start", func() bool { return metric(t, s, `mfbc_in_flight`) == 1 })
	waiter := make(chan error, 1)
	go func() {
		_, err := s.Query(QueryRequest{Graph: "g", K: 3})
		waiter <- err
	}()
	waitFor(t, "waiter to coalesce", func() bool { return metric(t, s, `mfbc_query_coalesced_total`) == 1 })
	close(release)

	if rw := <-lead; rw.Code != http.StatusInternalServerError {
		t.Fatalf("query leading a panicking compute: status %d, want 500; body %s", rw.Code, rw.Body.String())
	}
	if err := <-waiter; !errors.Is(err, ErrInternal) {
		t.Fatalf("waiter coalesced onto a panicking compute: %v, want ErrInternal", err)
	}
	st := scrape(t, s)
	if st.get(`mfbc_panics_total{site="query.compute"}`) != 1 || st.get(`mfbc_in_flight`) != 0 ||
		st.get(`mfbc_compute_errors_total`) != 1 || st.get(`mfbc_cache_entries`) != 0 {
		t.Fatalf("after the contained panic: %v", st)
	}

	// Still serving: the flight is gone, so the same key computes afresh.
	res, err := s.Query(QueryRequest{Graph: "g", K: 3})
	if err != nil {
		t.Fatalf("query after the contained panic: %v", err)
	}
	if res.Stats.CacheHit || res.Stats.Coalesced || len(res.TopK) != 3 || runs.Load() != 2 {
		t.Fatalf("query after the contained panic did not compute normally: %+v (runs %d)", res, runs.Load())
	}
	waitFor(t, "no leaked goroutine", func() bool { return runtime.NumGoroutine() <= before })
}

// TestDistinctQueriesDontBlock: a long compute on one graph must not
// serialize queries against another. The first compute blocks until the
// second query has fully completed; a server that held its lock across
// computes would deadlock here (bounded by the 5s guard).
func TestDistinctQueriesDontBlock(t *testing.T) {
	s := New(Config{Workers: 1})
	ga := repro.UniformGraph(30, 100, false, 2)
	gb := repro.UniformGraph(20, 60, false, 3)
	addGraph(t, s, "a", ga)
	addGraph(t, s, "b", gb)

	bFinished := make(chan struct{})
	s.computeExact = func(g *repro.Graph, opt repro.Options) (*repro.Result, error) {
		if g.N == ga.N {
			select {
			case <-bFinished:
			case <-time.After(5 * time.Second):
				return nil, errors.New("query against graph b blocked behind graph a's compute")
			}
		}
		return repro.Compute(g, opt)
	}

	aErr := make(chan error, 1)
	go func() {
		_, err := s.Query(QueryRequest{Graph: "a"})
		aErr <- err
	}()
	waitFor(t, "graph a's compute to start", func() bool { return metric(t, s, `mfbc_in_flight`) == 1 })

	if _, err := s.Query(QueryRequest{Graph: "b"}); err != nil {
		t.Fatal(err)
	}
	close(bFinished)
	if err := <-aErr; err != nil {
		t.Fatal(err)
	}
}

func TestApproximateQueryKeying(t *testing.T) {
	s := New(Config{Workers: 1})
	addGraph(t, s, "g", testGraph(t))

	a1, err := s.Query(QueryRequest{Graph: "g", Samples: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Samples != 8 || a1.Stats.CacheHit {
		t.Fatalf("bad first approximate query: %+v", a1)
	}
	// Different sampling seed → different scores → distinct cache entry.
	if _, err := s.Query(QueryRequest{Graph: "g", Samples: 8, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	// Same budget and seed → cache hit.
	a3, err := s.Query(QueryRequest{Graph: "g", Samples: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a3.Stats.CacheHit {
		t.Fatal("repeat approximate query must hit the cache")
	}
	// Exact queries ignore the seed: it is normalized out of the key.
	if _, err := s.Query(QueryRequest{Graph: "g", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	e2, err := s.Query(QueryRequest{Graph: "g", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !e2.Stats.CacheHit {
		t.Fatal("exact queries with different seeds must share one cache entry")
	}
	if st := scrape(t, s); st.get(`mfbc_computes_total`) != 3 {
		t.Fatalf("computes = %v, want 3 (two approx seeds + one exact)", st.get(`mfbc_computes_total`))
	}
	// A sample budget ≥ n degenerates to exact and must collapse onto the
	// exact cache entry regardless of seed.
	over, err := s.Query(QueryRequest{Graph: "g", Samples: 10_000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !over.Stats.CacheHit || over.Samples != 0 {
		t.Fatalf("over-budget sampling must hit the exact entry: %+v", over)
	}
	if st := scrape(t, s); st.get(`mfbc_computes_total`) != 3 {
		t.Fatalf("over-budget sampling recomputed: %+v", st)
	}
}

// TestSampledQueryTakesSequentialRoute: a samples query at default procs
// sweeps only its sampled sources on the sequential path — no plan, no
// modeled comm — and serves exactly repro.ApproximateBC's estimate.
func TestSampledQueryTakesSequentialRoute(t *testing.T) {
	s := New(Config{Workers: 1})
	g := testGraph(t)
	addGraph(t, s, "g", g)
	got, err := s.Query(QueryRequest{Graph: "g", Samples: 8, Seed: 3, IncludeScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan != "" || got.Stats.Comm != (repro.CommReport{}) {
		t.Fatalf("sampled query at p=1 reported plan %q, comm %+v", got.Plan, got.Stats.Comm)
	}
	want, err := repro.ApproximateBC(g, 8, 3, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.BC {
		if got.Scores[v] != want.BC[v] {
			t.Fatalf("scores[%d] = %v, want %v", v, got.Scores[v], want.BC[v])
		}
	}
}

// TestEvictDuringFlightNoResidue: a compute finishing after its graph was
// evicted must not re-insert a cache entry for the dead graph, but its
// waiters still get the result.
func TestEvictDuringFlightNoResidue(t *testing.T) {
	s := New(Config{Workers: 1})
	addGraph(t, s, "g", testGraph(t))

	release := make(chan struct{})
	s.computeExact = func(g *repro.Graph, opt repro.Options) (*repro.Result, error) {
		<-release
		return repro.Compute(g, opt)
	}
	done := make(chan error, 1)
	var res *QueryResult
	go func() {
		var err error
		res, err = s.Query(QueryRequest{Graph: "g", K: 1})
		done <- err
	}()
	waitFor(t, "compute to start", func() bool { return metric(t, s, `mfbc_in_flight`) == 1 })
	if err := s.Evict("g"); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 1 {
		t.Fatalf("in-flight query must still answer: %+v", res)
	}
	if st := scrape(t, s); st.get(`mfbc_cache_entries`) != 0 || st.get(`mfbc_graphs`) != 0 {
		t.Fatalf("evicted graph left cache residue: %+v", st)
	}
}

func TestEvictPurgesCache(t *testing.T) {
	s := New(Config{Workers: 1})
	g := testGraph(t)
	addGraph(t, s, "g", g)
	if _, err := s.Query(QueryRequest{Graph: "g"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Evict("g"); err != nil {
		t.Fatal(err)
	}
	if err := s.Evict("g"); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("double evict: %v", err)
	}
	if _, err := s.Query(QueryRequest{Graph: "g"}); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("query after evict: %v", err)
	}
	if st := scrape(t, s); st.get(`mfbc_graphs`) != 0 || st.get(`mfbc_cache_entries`) != 0 {
		t.Fatalf("evict left residue: %+v", st)
	}
	// Re-registering the same topology starts cold.
	addGraph(t, s, "g", g)
	res, err := s.Query(QueryRequest{Graph: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Fatal("cache must not survive eviction")
	}
}

func TestReplaceGraphChangesVersion(t *testing.T) {
	s := New(Config{Workers: 1})
	addGraph(t, s, "g", repro.UniformGraph(30, 90, false, 4))
	v1, err := s.Query(QueryRequest{Graph: "g"})
	if err != nil {
		t.Fatal(err)
	}
	addGraph(t, s, "g", repro.UniformGraph(30, 90, false, 5))
	v2, err := s.Query(QueryRequest{Graph: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version == v2.Version {
		t.Fatal("different topologies must have different versions")
	}
	if v2.Stats.CacheHit {
		t.Fatal("stale cache entry served for a replaced graph")
	}
}

func TestCacheBoundLRU(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 2})
	addGraph(t, s, "g", testGraph(t))
	for _, batch := range []int{4, 8, 16} {
		if _, err := s.Query(QueryRequest{Graph: "g", Batch: batch}); err != nil {
			t.Fatal(err)
		}
	}
	st := scrape(t, s)
	if st.get(`mfbc_cache_entries`) != 2 || st.get(`mfbc_cache_evictions_total`) != 1 {
		t.Fatalf("LRU bound not enforced: %+v", st)
	}
	// batch=4 was evicted; batch=16 is still resident.
	res, err := s.Query(QueryRequest{Graph: "g", Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Fatal("most recent entry must survive LRU eviction")
	}
	res, err = s.Query(QueryRequest{Graph: "g", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Fatal("oldest entry must have been evicted")
	}
}

func TestComputeErrorsNotCached(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(4, 4, 9, 6) // weighted: combblas rejects it
	addGraph(t, s, "g", g)
	if _, err := s.Query(QueryRequest{Graph: "g", Engine: repro.EngineCombBLAS}); err == nil {
		t.Fatal("weighted graph on combblas must fail")
	}
	if _, err := s.Query(QueryRequest{Graph: "g", Engine: repro.EngineCombBLAS}); err == nil {
		t.Fatal("errors must not be cached as successes")
	}
	if st := scrape(t, s); st.get(`mfbc_computes_total`) != 2 || st.get(`mfbc_cache_entries`) != 0 {
		t.Fatalf("error caching went wrong: %+v", st)
	}
	if _, err := s.Query(QueryRequest{Graph: "g", K: -1}); err == nil {
		t.Fatal("negative k must be rejected")
	}
}

func TestAddGraphValidation(t *testing.T) {
	s := New(Config{})
	if _, err := s.AddGraph("", testGraph(t)); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := s.AddGraph("g", nil); err == nil {
		t.Fatal("nil graph must fail")
	}
	bad := &repro.Graph{N: 2, Edges: []repro.Edge{{U: 0, V: 5, W: 1}}}
	if _, err := s.AddGraph("g", bad); err == nil {
		t.Fatal("invalid graph must fail")
	}
	if _, err := s.GraphInfoFor("missing"); !errors.Is(err, ErrGraphNotFound) {
		t.Fatal("missing graph must report ErrGraphNotFound")
	}
}
