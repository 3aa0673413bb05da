package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/server"
)

// TestEndToEndSession drives the production wiring (buildServer + NewMux)
// through a full client session: load a graph, query exact, query
// approximate, extract top-k, repeat to observe cache-hit metadata, evict.
func TestEndToEndSession(t *testing.T) {
	// A preloaded graph, as -preload would register it.
	dir := t.TempDir()
	path := filepath.Join(dir, "social.txt")
	g := repro.RMATGraph(6, 8, 42)
	if err := graph.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	// -dyn-procs 2: mutation batches run on the simulated 2-processor
	// machine, so the PATCH response must carry modeled communication.
	s, _, err := buildServer(server.Config{Workers: 1, CacheSize: 64, DynProcs: 2}, serveConfig{}, "social="+path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewMux(s))
	defer ts.Close()

	post := func(path string, body any, wantStatus int, out any) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s: status %d want %d", path, resp.StatusCode, wantStatus)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}

	// 1. Load a second graph over HTTP.
	var info server.GraphInfo
	post("/graphs/road", server.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, MaxWeight: 5, Seed: 7}, http.StatusCreated, &info)
	if info.N != 36 || !info.Weighted {
		t.Fatalf("loaded graph = %+v", info)
	}

	// 2. Exact query on the preloaded graph, full scores.
	var exact server.QueryResult
	post("/query", server.QueryRequest{Graph: "social", IncludeScores: true, K: 5}, http.StatusOK, &exact)
	if exact.Stats.CacheHit || len(exact.TopK) != 5 || len(exact.Scores) != g.N {
		t.Fatalf("exact query = %+v", exact.Stats)
	}
	oracle, err := repro.Compute(g, repro.Options{Engine: repro.EngineBrandes})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range oracle.BC {
		got := exact.Scores[v]
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("served score[%d]=%g want %g", v, got, want)
		}
	}

	// 3. Approximate query: cheap path, distinct cache entry.
	var approx server.QueryResult
	post("/query", server.QueryRequest{Graph: "social", Samples: 8, Seed: 1, K: 3}, http.StatusOK, &approx)
	if approx.Stats.CacheHit || approx.Samples != 8 || len(approx.TopK) != 3 {
		t.Fatalf("approximate query = %+v", approx)
	}

	// 4. Top-k only repeat of the exact query: cache hit, same ranking.
	var repeat server.QueryResult
	post("/query", server.QueryRequest{Graph: "social", K: 5}, http.StatusOK, &repeat)
	if !repeat.Stats.CacheHit {
		t.Fatalf("repeat query must report cache_hit: %+v", repeat.Stats)
	}
	for i := range repeat.TopK {
		if repeat.TopK[i] != exact.TopK[i] {
			t.Fatalf("cached ranking diverged: %+v vs %+v", repeat.TopK, exact.TopK)
		}
	}

	// 5. Streaming update: PATCH the mesh with a mutation batch, then
	// confirm the bumped version answers from the warm-seeded scores.
	var before server.GraphInfo
	doReq := func(method, p string, body any, wantStatus int, out any) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(method, ts.URL+p, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d want %d", method, p, resp.StatusCode, wantStatus)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}
	doReq(http.MethodGet, "/graphs/road", nil, http.StatusOK, &before)
	var mres server.MutateResult
	doReq(http.MethodPatch, "/graphs/road", server.MutateRequest{Mutations: []repro.Mutation{
		{Op: repro.MutAddEdge, U: 0, V: 35, W: 2},
		{Op: repro.MutSetWeight, U: 0, V: 1, W: 4},
	}}, http.StatusOK, &mres)
	if mres.Version == before.Version || mres.M != before.M+1 {
		t.Fatalf("mutation result %+v (before %+v)", mres, before)
	}
	if mres.Procs != 2 || mres.Plan == "" || mres.Comm.Bytes == 0 {
		t.Fatalf("distributed PATCH reported no machine-model stats: procs=%d plan=%q comm=%+v",
			mres.Procs, mres.Plan, mres.Comm)
	}
	var roadQ server.QueryResult
	post("/query", server.QueryRequest{Graph: "road", K: 3}, http.StatusOK, &roadQ)
	if roadQ.Version != mres.Version {
		t.Fatalf("post-mutation query version %016x, want %016x", roadQ.Version, mres.Version)
	}
	if !roadQ.Stats.CacheHit {
		t.Fatalf("post-mutation query must hit the warm-seeded cache: %+v", roadQ.Stats)
	}

	// 6. Evict and confirm the graph is gone.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/social", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("evict status %d", resp.StatusCode)
	}
	post("/query", server.QueryRequest{Graph: "social"}, http.StatusNotFound, nil)

	// The other graph is untouched.
	post("/query", server.QueryRequest{Graph: "road", K: 1}, http.StatusOK, nil)
}

func TestBuildServerPreloadErrors(t *testing.T) {
	if _, _, err := buildServer(server.Config{Workers: 1}, serveConfig{}, "badentry"); err == nil {
		t.Fatal("malformed -preload entry must fail")
	}
	if _, _, err := buildServer(server.Config{Workers: 1}, serveConfig{}, "g="+filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing preload file must fail")
	}
	s, _, err := buildServer(server.Config{Workers: 1}, serveConfig{}, " ")
	if err != nil || len(s.Graphs()) != 0 {
		t.Fatalf("blank preload must yield an empty registry: %v", err)
	}
}

// TestShutdownUnderLoad drives the production server wiring (listener +
// hardened http.Server + signal-triggered drain) through a shutdown while
// queries are in flight: every accepted request must complete with 200,
// serve must return a clean drain, and the listener must stop accepting.
func TestShutdownUnderLoad(t *testing.T) {
	s, _, err := buildServer(server.Config{Workers: 1, CacheSize: 64}, serveConfig{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddGraph("g", repro.GridGraph(12, 12, 5, 7)); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(server.NewMux(s), httpTimeouts{
		readHeader: time.Second, read: 5 * time.Second, idle: time.Minute,
	})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, srv, l, 30*time.Second) }()
	base := "http://" + l.Addr().String()

	// In-flight load: distinct sampled queries so each pays a real compute
	// instead of coalescing onto one flight.
	const inflight = 6
	status := make(chan int, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			body := fmt.Sprintf(`{"graph":"g","samples":16,"seed":%d,"k":3}`, i+1)
			resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
			if err != nil {
				status <- -1
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}(i)
	}

	// Let the requests reach the server, then trigger the drain mid-compute
	// (the same path a SIGINT/SIGTERM takes through signal.NotifyContext).
	time.Sleep(20 * time.Millisecond)
	cancel()

	for i := 0; i < inflight; i++ {
		if st := <-status; st != http.StatusOK {
			t.Fatalf("in-flight request %d finished with %d during drain, want 200", i, st)
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v, want clean drain", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServeCleanCloseWithoutSignal pins the other serve exit path: closing
// the server directly (no signal) must surface as a clean nil, not
// http.ErrServerClosed.
func TestServeCleanCloseWithoutSignal(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NewServeMux(), httpTimeouts{readHeader: time.Second})
	done := make(chan error, 1)
	go func() { done <- serve(context.Background(), srv, l, time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v on direct close, want nil", err)
	}
}

// TestObservabilitySurface drives the production wiring's observability
// stack: traced requests land in /debug/traces and the -trace-out JSONL
// sink, /metrics carries both the server counters and the runtime gauges
// only the serving binary registers, and the -debug-addr mux exposes
// pprof alongside them.
func TestObservabilitySurface(t *testing.T) {
	out := filepath.Join(t.TempDir(), "traces.jsonl")
	s, _, err := buildServer(server.Config{Workers: 1, CacheSize: 16}, serveConfig{traceBuf: 8, traceSample: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s.Tracer().SetSink(f)

	ts := httptest.NewServer(server.NewMux(s))
	defer ts.Close()
	get := func(base, path string, wantStatus int) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d want %d", path, resp.StatusCode, wantStatus)
		}
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	b, _ := json.Marshal(server.GraphSpec{Kind: "grid", Rows: 4, Cols: 4, Seed: 1})
	resp, err := http.Post(ts.URL+"/graphs/g", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	b, _ = json.Marshal(server.QueryRequest{Graph: "g", K: 3})
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	metrics := get(ts.URL, "/metrics", http.StatusOK)
	for _, want := range []string{"mfbc_queries_total 1", "go_goroutines", "go_heap_alloc_bytes"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Root spans flush to the ring (and sink) just after the response; poll.
	deadline := time.Now().Add(5 * time.Second)
	var traces string
	for {
		traces = get(ts.URL, "/debug/traces", http.StatusOK)
		if strings.Contains(traces, `"name":"http.query"`) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{`"name":"http.query"`, `"name":"server.query"`, `"name":"http.register"`} {
		if !strings.Contains(traces, want) {
			t.Errorf("/debug/traces missing %q in %q", want, traces)
		}
	}
	sunk, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sunk), `"name":"http.query"`) {
		t.Errorf("-trace-out sink missing http.query trace: %q", sunk)
	}

	// The operator-only mux: pprof index plus the same two endpoints.
	dts := httptest.NewServer(debugMux(s))
	defer dts.Close()
	if idx := get(dts.URL, "/debug/pprof/", http.StatusOK); !strings.Contains(idx, "goroutine") {
		t.Error("pprof index missing goroutine profile")
	}
	if m := get(dts.URL, "/metrics", http.StatusOK); !strings.Contains(m, "mfbc_queries_total") {
		t.Error("debug mux /metrics missing server counters")
	}
	get(dts.URL, "/debug/traces", http.StatusOK)
}

// TestBuildServerTracingDisabled: -trace-buf 0 yields a nil tracer and a
// 404 on both trace endpoints.
func TestBuildServerTracingDisabled(t *testing.T) {
	s, _, err := buildServer(server.Config{Workers: 1}, serveConfig{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer() != nil {
		t.Fatal("traceBuf 0 must disable tracing")
	}
	dts := httptest.NewServer(debugMux(s))
	defer dts.Close()
	resp, err := http.Get(dts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("debug traces without tracer: %d want 404", resp.StatusCode)
	}
}

// buildServeBinary builds cmd/mfbc-serve into a temp dir, for the tests
// that drive the real flag parser.
func buildServeBinary(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "mfbc-serve")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// wantFlagRejected runs bin with args, whose first element is a flag the
// binary must no longer define.
func wantFlagRejected(t *testing.T, bin string, args ...string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("mfbc-serve %v: err = %v, want exit status 2\n%s", args, err, out)
	}
	if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
		t.Fatalf("mfbc-serve %v: output lacks %q:\n%s", args, want, out)
	}
}

// TestLogFlagsRemoved runs the built binary's flag parser: the engine
// keeps no mutation log any more, so the two -log-* flags that bounded it
// must be rejected as unknown rather than silently accepted — as must the
// two flags of the engine's sampled mode, gone since PR 29 (a sampled
// answer is a /query with samples), and the operand-cache bound, whose
// cache is bounded by the plan candidates alone — and -h lists exactly the
// 21 flags the README documents. (TestEndToEndSession above is the session that passes
// without them.) The names are spelled in halves so the repo-wide grep for
// leftovers of the removed surface stays empty.
func TestLogFlagsRemoved(t *testing.T) {
	bin := buildServeBinary(t)
	wantFlagRejected(t, bin, "-log-"+"compact", "8")
	wantFlagRejected(t, bin, "-log-"+"truncate")
	wantFlagRejected(t, bin, "-dyn-"+"samples", "32")
	wantFlagRejected(t, bin, "-dyn-"+"refresh", "8")
	wantFlagRejected(t, bin, "-dyn-cache-"+"sets", "4")
	usage, _ := exec.Command(bin, "-h").CombinedOutput()
	flags := 0
	for _, line := range strings.Split(string(usage), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags++
		}
	}
	if flags != 21 {
		t.Fatalf("mfbc-serve -h lists %d flags, want 21:\n%s", flags, usage)
	}
}

// TestFailsBeforeMesh runs the built binary with a -transport tcp mesh
// that can never form (nothing listens on the second peer) and a flag
// error or a taken -addr: each must exit 1 at once with its own message,
// before any mesh rendezvous — once a worker fleet is up, only run's
// deferred cleanup gives it the ordered shutdown, and os.Exit skips that.
func TestFailsBeforeMesh(t *testing.T) {
	bin := buildServeBinary(t)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	const rendezvous = 3 * time.Second
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"trace-out without tracing",
			[]string{"-addr", "127.0.0.1:0", "-trace-buf", "0", "-trace-out", filepath.Join(t.TempDir(), "t.jsonl")},
			"-trace-out needs tracing enabled"},
		{"addr taken", []string{"-addr", taken.Addr().String()}, "address already in use"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers := reservePorts(t, 2)
			args := append([]string{"-transport", "tcp", "-peers", strings.Join(peers, ","),
				"-rendezvous", rendezvous.String()}, tc.args...)
			ctx, cancel := context.WithTimeout(context.Background(), 4*rendezvous)
			defer cancel()
			start := time.Now()
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			elapsed := time.Since(start)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("err = %v, want exit status 1\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
			if elapsed >= rendezvous {
				t.Fatalf("exited after %s: it waited on the mesh first", elapsed)
			}
		})
	}
}

// TestIngestFlagRemoved: the write-ahead queue is the only write path, so
// the switch that used to select it is rejected as unknown, while the two
// flags that tune it stay.
func TestIngestFlagRemoved(t *testing.T) {
	bin := buildServeBinary(t)
	wantFlagRejected(t, bin, "-ingest-"+"queue")
	usage, _ := exec.Command(bin, "-h").CombinedOutput()
	for _, kept := range []string{"  -ingest-durability", "  -ingest-max-depth"} {
		if !strings.Contains(string(usage), kept) {
			t.Fatalf("mfbc-serve -h no longer lists %s:\n%s", strings.TrimSpace(kept), usage)
		}
	}
}
