package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestMutateTraceMachineRegions is the tracing acceptance test: a PATCH
// against a distributed engine must produce a trace whose machine-region
// child spans pair the modeled cost with measured wall-clock for every
// phase the MutateResult reports.
func TestMutateTraceMachineRegions(t *testing.T) {
	tr := obs.NewTracer(16)
	s := New(Config{Workers: 1, DynProcs: 2, Tracer: tr})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	doJSON(t, ts, "POST", "/graphs/g",
		GraphSpec{Kind: "uniform", N: 30, M: 120, Seed: 1}, http.StatusCreated, nil)

	var res MutateResult
	doJSON(t, ts, "PATCH", "/graphs/g",
		MutateRequest{Mutations: []repro.Mutation{
			{Op: repro.MutAddVertex},
			{Op: repro.MutAddEdge, U: 0, V: 30, W: 1},
		}},
		http.StatusOK, &res)
	if res.Procs != 2 {
		t.Fatalf("procs = %d, want distributed run", res.Procs)
	}
	if len(res.Phases) == 0 {
		t.Fatal("distributed mutate reported no phases")
	}

	// The root span ends just after the response is written; poll.
	var spans []obs.SpanRecord
	waitFor(t, "mutate trace", func() bool {
		for _, trc := range tr.Traces() {
			for _, rec := range trc {
				if rec.Name == "http.mutate" {
					spans = trc
					return true
				}
			}
		}
		return false
	})

	byName := map[string][]obs.SpanRecord{}
	id2name := map[string]string{}
	for _, rec := range spans {
		byName[rec.Name] = append(byName[rec.Name], rec)
		id2name[rec.Span] = rec.Name
	}
	for _, want := range []string{"http.mutate", "server.mutate", "dynamic.apply", "machine.region"} {
		if len(byName[want]) == 0 {
			t.Fatalf("trace has no %q span; got %v", want, names(spans))
		}
	}
	// Parent chain: server.mutate under http.mutate, dynamic.apply under
	// server.mutate, machine.region under dynamic.apply.
	for child, parent := range map[string]string{
		"server.mutate": "http.mutate", "dynamic.apply": "server.mutate",
		"machine.region": "dynamic.apply",
	} {
		if got := id2name[byName[child][0].Parent]; got != parent {
			t.Errorf("%s parent = %q, want %q", child, got, parent)
		}
	}

	// Every phase in the MutateResult appears as a phase.<name> child of a
	// machine.region span, carrying both the modeled cost and wall-clock.
	regions := map[string]bool{}
	for _, rec := range byName["machine.region"] {
		regions[rec.Span] = true
		for _, key := range []string{"model_sec", "wall_ms", "bytes", "msgs", "flops", "products", "screened_out"} {
			if _, ok := rec.Attrs[key]; !ok {
				t.Errorf("machine.region span missing attr %q: %v", key, rec.Attrs)
			}
		}
	}
	for _, ph := range res.Phases {
		label := ph.Name
		if !machine.IsCanonicalPhase(label) {
			t.Errorf("phase %q is not in the machine phase registry", label)
		}
		found := false
		for _, rec := range byName["phase."+label] {
			if !regions[rec.Parent] {
				t.Errorf("phase.%s span parented outside machine.region", label)
			}
			if _, ok := rec.Attrs["model_sec"]; !ok {
				t.Errorf("phase.%s span missing model_sec: %v", label, rec.Attrs)
			}
			if _, ok := rec.Attrs["wall_ms"]; !ok {
				t.Errorf("phase.%s span missing wall_ms: %v", label, rec.Attrs)
			}
			found = true
		}
		if !found {
			t.Errorf("reported phase %q has no phase.%s span; spans: %v", ph.Name, label, names(spans))
		}
	}
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, rec := range spans {
		out[i] = rec.Name
	}
	return out
}

// TestQueryTraceSource pins the query span's answer-source attribute
// across the cache-miss and cache-hit paths.
func TestQueryTraceSource(t *testing.T) {
	tr := obs.NewTracer(16)
	s := New(Config{Workers: 1, Tracer: tr})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	doJSON(t, ts, "POST", "/graphs/g",
		GraphSpec{Kind: "uniform", N: 20, M: 60, Seed: 1}, http.StatusCreated, nil)
	for range 2 {
		doJSON(t, ts, "POST", "/query", QueryRequest{Graph: "g"}, http.StatusOK, nil)
	}

	sources := map[string]bool{}
	waitFor(t, "two query traces", func() bool {
		sources = map[string]bool{}
		for _, trc := range tr.Traces() {
			for _, rec := range trc {
				if rec.Name == "server.query" {
					if src, ok := rec.Attrs["source"].(string); ok {
						sources[src] = true
					}
				}
			}
		}
		return sources["compute"] && sources["cache"]
	})
}

// TestMetricsEndpointDeterministic exercises the registry through the real
// HTTP surface under concurrent mixed load — query readers beside PATCH
// writers, some acked on apply and some on enqueue — then checks that
// back-to-back scrapes of a quiescent server are byte-identical and parse
// back to exactly the traffic the clients sent: per-route request counts
// and latency counts, every response 2xx, cache hits and group commits.
// Run with -race this also proves scraping is safe against concurrent
// writers.
func TestMetricsEndpointDeterministic(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	spec := GraphSpec{Kind: "uniform", N: 20, M: 60, Seed: 1}
	doJSON(t, ts, "POST", "/graphs/g", spec, http.StatusCreated, nil)
	g, err := BuildGraph(spec) // the edges the server registered
	if err != nil {
		t.Fatal(err)
	}

	scrapeHTTP := func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := copyAll(&b, resp); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	// The fixed vocabularies are complete from the first scrape on: the
	// engine aggregates and both contained-panic sites show at zero.
	cold := scrapeHTTP()
	for _, want := range []string{
		"mfbc_dyn_fused_applies 0",
		"mfbc_dyn_two_region_applies 0",
		"mfbc_dyn_operand_evictions 0",
		`mfbc_panics_total{site="ingest.commit"} 0`,
		`mfbc_panics_total{site="query.compute"} 0`,
	} {
		if !strings.Contains(cold, want+"\n") {
			t.Errorf("first scrape missing %q", want)
		}
	}

	// send runs on the client goroutines, so it reports with t.Error. Every
	// response is checked as it arrives against its one expected 2xx code.
	send := func(method, path string, body any, want int) {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(buf))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	const readers, queries = 4, 10
	const writers, patches = 2, 5
	var wg sync.WaitGroup
	for w := range readers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queries {
				send("POST", "/query", QueryRequest{Graph: "g", K: (w*10+i)%5 + 1}, http.StatusOK)
				_ = scrapeHTTP() // scrape mid-load: must not race with writers
			}
		}(w)
	}
	for w := range writers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			durability, status := DurabilityApplied, http.StatusOK
			if w%2 == 1 {
				durability, status = DurabilityEnqueued, http.StatusAccepted
			}
			for i := range patches {
				e := g.Edges[w*patches+i]
				send("PATCH", "/graphs/g", MutateRequest{
					Mutations:  []repro.Mutation{{Op: repro.MutSetWeight, U: e.U, V: e.V, W: float64(2 + i)}},
					Durability: durability,
				}, status)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// An enqueued PATCH acks before its commit. A committed batch observes
	// its queue wait just before it resolves, the commit's last write to
	// the registry, so once every batch has one the server is quiescent.
	waitFor(t, "enqueued batches committed", func() bool {
		return metric(t, s, "mfbc_ingest_queue_wait_seconds_count") == writers*patches
	})

	first := scrapeHTTP()
	for i := range 3 {
		if got := scrapeHTTP(); got != first {
			t.Fatalf("scrape %d differs from first:\n%s\n---\n%s", i+2, got, first)
		}
	}
	for _, want := range []string{
		"# TYPE mfbc_queries_total counter",
		"# TYPE mfbc_query_duration_seconds histogram",
		"mfbc_query_duration_seconds_bucket{le=\"+Inf\",source=\"compute\"}",
		"mfbc_http_requests_total{code=\"2xx\",route=\"query\"} 40",
		"mfbc_graphs 1",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	parsed, err := obs.ParseText(first)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed["mfbc_queries_total"]; got != readers*queries {
		t.Errorf("mfbc_queries_total = %v, want %d", got, readers*queries)
	}
	// What the server counted per route is exactly what the clients sent,
	// all of it 2xx, and the latency histogram saw every request.
	for route, sent := range map[string]float64{"query": readers * queries, "mutate": writers * patches} {
		byCode := 0.0
		for series, v := range parsed {
			if strings.HasPrefix(series, "mfbc_http_requests_total{") && strings.Contains(series, `route="`+route+`"`) {
				byCode += v
			}
		}
		ok := parsed[`mfbc_http_requests_total{code="2xx",route="`+route+`"}`]
		timed := parsed[`mfbc_http_request_duration_seconds_count{route="`+route+`"}`]
		if byCode != sent || ok != sent || timed != sent {
			t.Errorf("route %s: server counted %v requests (%v 2xx, %v timed), clients sent %v",
				route, byCode, ok, timed, sent)
		}
	}
	if got := parsed["mfbc_query_cache_hits_total"]; got == 0 {
		t.Error("no cache hits across the run")
	}
	if got := parsed["mfbc_ingest_group_commits_total"]; got < 1 {
		t.Errorf("mfbc_ingest_group_commits_total = %v, want ≥ 1", got)
	}
}

func copyAll(b *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		b.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// TestWriteJSONEncodeErrorCounted: an unencodable response value must land
// on mfbc_encode_errors_total instead of vanishing.
func TestWriteJSONEncodeErrorCounted(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(Config{Workers: 1, Logger: quiet})
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if got := metric(t, s, `mfbc_encode_errors_total`); got != 1 {
		t.Fatalf("encode errors = %v, want 1", got)
	}
	rec = httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]string{"ok": "yes"})
	if got := metric(t, s, `mfbc_encode_errors_total`); got != 1 {
		t.Fatalf("encode errors after clean write = %v, want 1", got)
	}
}

// TestTraceSamplingErrorAndSlowKeep: with the tracer's head sampler at
// rate 0, only error and slow requests retain traces — everything else is
// sampled out — and the http duration histogram carries exemplar span IDs
// only for retained traces.
func TestTraceSamplingErrorAndSlowKeep(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	tr := obs.NewTracer(16)
	tr.SetSampleRate(0)
	s := New(Config{Workers: 1, Tracer: tr, Logger: quiet})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	doJSON(t, ts, "GET", "/healthz", nil, http.StatusOK, nil) // sampled out
	doJSON(t, ts, "POST", "/query", QueryRequest{Graph: "nope"}, http.StatusNotFound, nil)

	waitFor(t, "error trace kept past the sampler", func() bool {
		for _, trc := range tr.Traces() {
			for _, rec := range trc {
				if rec.Name == "http.query" {
					return true
				}
			}
		}
		return false
	})
	for _, trc := range tr.Traces() {
		for _, rec := range trc {
			if rec.Name == "http.healthz" {
				t.Fatal("sampled-out healthz trace reached the ring")
			}
		}
	}
	if tr.SampledOut() == 0 {
		t.Fatal("successful request was not sampled out at rate 0")
	}

	// Every duration-histogram exemplar must point at a trace that is
	// actually retrievable from the ring; the sampled-out route gets none.
	ringIDs := map[string]bool{}
	for _, trc := range tr.Traces() {
		for _, rec := range trc {
			ringIDs[rec.Trace] = true
		}
	}
	text := s.Registry().Text()
	sawExemplar := false
	for _, line := range strings.Split(text, "\n") {
		series, rest, ok := strings.Cut(line, " # ")
		if !ok || !strings.HasPrefix(series, "mfbc_http_request_duration_seconds_bucket") {
			continue
		}
		sawExemplar = true
		if strings.Contains(series, `route="healthz"`) {
			t.Fatalf("sampled-out route carries an exemplar: %s", line)
		}
		marker := `trace_id="`
		i := strings.Index(rest, marker)
		if i < 0 {
			t.Fatalf("exemplar without trace_id: %s", line)
		}
		id := rest[i+len(marker):]
		id = id[:strings.IndexByte(id, '"')]
		if !ringIDs[id] {
			t.Fatalf("exemplar references unkept trace %q: %s", id, line)
		}
	}
	if !sawExemplar {
		t.Fatalf("no exemplar on the http duration histogram:\n%s", text)
	}

	// Slow requests force-keep too: with a 1ns threshold every request
	// counts as slow, so even a 200 survives rate 0.
	tr2 := obs.NewTracer(16)
	tr2.SetSampleRate(0)
	s2 := New(Config{Workers: 1, Tracer: tr2, Logger: quiet, SlowQuery: time.Nanosecond})
	ts2 := httptest.NewServer(NewMux(s2))
	defer ts2.Close()
	doJSON(t, ts2, "GET", "/healthz", nil, http.StatusOK, nil)
	waitFor(t, "slow trace kept past the sampler", func() bool {
		for _, trc := range tr2.Traces() {
			for _, rec := range trc {
				if rec.Name == "http.healthz" {
					return true
				}
			}
		}
		return false
	})
}

// TestDebugTracesEndpoint: 404 without a tracer, JSONL with one.
func TestDebugTracesEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewMux(s))
	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traces without tracer: status %d, want 404", resp.StatusCode)
	}

	tr := obs.NewTracer(4)
	s2 := New(Config{Workers: 1, Tracer: tr})
	ts2 := httptest.NewServer(NewMux(s2))
	defer ts2.Close()
	doJSON(t, ts2, "GET", "/healthz", nil, http.StatusOK, nil)
	waitFor(t, "healthz trace", func() bool { return len(tr.Traces()) > 0 })
	resp, err = ts2.Client().Get(ts2.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := copyAll(&b, resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\"name\":\"http.healthz\"") {
		t.Fatalf("trace JSONL missing http.healthz span: %q", b.String())
	}
}
