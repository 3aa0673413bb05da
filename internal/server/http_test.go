package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var msg map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&msg)
		t.Fatalf("%s %s: status %d want %d (%v)", method, path, resp.StatusCode, wantStatus, msg)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHTTPRoutes(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	var health map[string]string
	doJSON(t, ts, "GET", "/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	var created GraphInfo
	doJSON(t, ts, "POST", "/graphs/demo",
		GraphSpec{Kind: "uniform", N: 40, M: 160, Seed: 1}, http.StatusCreated, &created)
	if created.Name != "demo" || created.N != 40 || created.Version == 0 {
		t.Fatalf("created = %+v", created)
	}

	var got GraphInfo
	doJSON(t, ts, "GET", "/graphs/demo", nil, http.StatusOK, &got)
	if got != created {
		t.Fatalf("GET %+v != POST %+v", got, created)
	}

	var listing struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	doJSON(t, ts, "GET", "/graphs", nil, http.StatusOK, &listing)
	if len(listing.Graphs) != 1 || listing.Graphs[0].Name != "demo" {
		t.Fatalf("listing = %+v", listing)
	}

	var res QueryResult
	doJSON(t, ts, "POST", "/query",
		QueryRequest{Graph: "demo", K: 5}, http.StatusOK, &res)
	if len(res.TopK) != 5 || res.Version != created.Version {
		t.Fatalf("query = %+v", res)
	}

	if st := scrape(t, s); st.get("mfbc_graphs") != 1 || st.get("mfbc_computes_total") != 1 {
		t.Fatalf("graphs = %v, computes = %v, want 1 and 1", st.get("mfbc_graphs"), st.get("mfbc_computes_total"))
	}

	doJSON(t, ts, "DELETE", "/graphs/demo", nil, http.StatusNoContent, nil)

	// Error surface: unknown graph is 404, malformed/unknown input is 400.
	var errBody map[string]string
	doJSON(t, ts, "GET", "/graphs/demo", nil, http.StatusNotFound, &errBody)
	if errBody["error"] == "" {
		t.Fatal("errors must carry an error message")
	}
	doJSON(t, ts, "DELETE", "/graphs/demo", nil, http.StatusNotFound, nil)
	doJSON(t, ts, "POST", "/query", QueryRequest{Graph: "demo"}, http.StatusNotFound, nil)
	doJSON(t, ts, "POST", "/graphs/x", GraphSpec{Kind: "nope"}, http.StatusBadRequest, nil)
	doJSON(t, ts, "POST", "/graphs/x", map[string]any{"kind": "rmat", "bogus": 1}, http.StatusBadRequest, nil)
	doJSON(t, ts, "POST", "/query", map[string]any{"graph": "demo", "k": "five"}, http.StatusBadRequest, nil)
}

func TestHTTPWeightedAndStandinSpecs(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	var grid GraphInfo
	doJSON(t, ts, "POST", "/graphs/road",
		GraphSpec{Kind: "grid", Rows: 5, Cols: 6, MaxWeight: 9, Seed: 2}, http.StatusCreated, &grid)
	if !grid.Weighted || grid.N != 30 {
		t.Fatalf("grid = %+v", grid)
	}

	var rmat GraphInfo
	doJSON(t, ts, "POST", "/graphs/social",
		GraphSpec{Kind: "rmat", Scale: 6, EdgeFactor: 6, Seed: 3, Weights: 10}, http.StatusCreated, &rmat)
	if !rmat.Weighted {
		t.Fatalf("rmat with weights overlay = %+v", rmat)
	}

	// Weighted graphs route to MFBC fine but must fail loudly on combblas.
	var res QueryResult
	doJSON(t, ts, "POST", "/query", QueryRequest{Graph: "road", K: 3}, http.StatusOK, &res)
	if len(res.TopK) != 3 {
		t.Fatalf("weighted query = %+v", res)
	}
	doJSON(t, ts, "POST", "/query",
		QueryRequest{Graph: "road", Engine: "combblas"}, http.StatusBadRequest, nil)

	for _, kind := range []string{"rmat", "uniform", "grid", "file"} {
		doJSON(t, ts, "POST", "/graphs/bad", GraphSpec{Kind: kind}, http.StatusBadRequest, nil)
	}
}

// rawStatus sends body verbatim and returns only the response status.
func rawStatus(t *testing.T, ts *httptest.Server, method, path, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestStatusForErrorClasses(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{ErrGraphNotFound, http.StatusNotFound},
		{fmt.Errorf("wrap: %w", ErrGraphNotFound), http.StatusNotFound},
		{ErrGraphConflict, http.StatusConflict},
		{fmt.Errorf("wrap: %w", ErrGraphConflict), http.StatusConflict},
		{fmt.Errorf("wrap: %w", ErrIngestBackpressure), http.StatusTooManyRequests},
		{fmt.Errorf("wrap: %w", ErrInternal), http.StatusInternalServerError},
		{&http.MaxBytesError{Limit: 1 << 20}, http.StatusRequestEntityTooLarge},
		{fmt.Errorf("wrap: %w", &http.MaxBytesError{Limit: 1}), http.StatusRequestEntityTooLarge},
		{errors.New("anything else"), http.StatusBadRequest},
	} {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestHTTPRouteStatusMatrix pins the error-status contract of every route:
// unknown graphs are 404, oversized bodies are 413, malformed input is 400,
// a full write queue is 429 — on each route that can produce them, not just
// the ones that happened to be tested before. POST /graphs previously
// collapsed every registration error to 400 instead of routing through
// statusFor.
func TestHTTPRouteStatusMatrix(t *testing.T) {
	s := New(Config{Workers: 1, IngestMaxDepth: 1})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	doJSON(t, ts, "POST", "/graphs/g",
		GraphSpec{Kind: "uniform", N: 16, M: 40, Seed: 1}, http.StatusCreated, nil)

	// "full" has its one queue slot taken for the whole matrix: an acked
	// batch whose drainer waits on the held serializer.
	doJSON(t, ts, "POST", "/graphs/full",
		GraphSpec{Kind: "uniform", N: 16, M: 40, Seed: 1}, http.StatusCreated, nil)
	lk := s.mutLockFor("full")
	lk.Lock()
	defer lk.Unlock()
	doJSON(t, ts, "PATCH", "/graphs/full",
		MutateRequest{Mutations: []repro.Mutation{{Op: repro.MutAddVertex}}, Durability: DurabilityEnqueued},
		http.StatusAccepted, nil)

	validPatch := `{"mutations":[{"op":"set_weight","u":0,"v":1,"w":2}]}`
	oversized := `{"pad":"` + strings.Repeat("x", 1<<20+512) + `"}`

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		// 404: unknown graph on every graph-addressed route.
		{"get-missing", "GET", "/graphs/nope", "", http.StatusNotFound},
		{"patch-missing", "PATCH", "/graphs/nope", validPatch, http.StatusNotFound},
		{"delete-missing", "DELETE", "/graphs/nope", "", http.StatusNotFound},
		{"query-missing", "POST", "/query", `{"graph":"nope"}`, http.StatusNotFound},

		// 413: oversized body on every body-accepting route.
		{"post-oversized", "POST", "/graphs/big", oversized, http.StatusRequestEntityTooLarge},
		{"patch-oversized", "PATCH", "/graphs/g", oversized, http.StatusRequestEntityTooLarge},
		{"query-oversized", "POST", "/query", oversized, http.StatusRequestEntityTooLarge},

		// 400: malformed JSON, unknown fields, invalid parameters.
		{"post-malformed", "POST", "/graphs/x", `{"kind":`, http.StatusBadRequest},
		{"patch-malformed", "PATCH", "/graphs/g", `{"mutations":`, http.StatusBadRequest},
		{"query-malformed", "POST", "/query", `{"graph":`, http.StatusBadRequest},
		{"post-unknown-field", "POST", "/graphs/x", `{"kind":"rmat","bogus":1}`, http.StatusBadRequest},
		{"post-bad-spec", "POST", "/graphs/x", `{"kind":"nope"}`, http.StatusBadRequest},
		{"patch-empty-batch", "PATCH", "/graphs/g", `{"mutations":[]}`, http.StatusBadRequest},
		{"patch-bad-op", "PATCH", "/graphs/g", `{"mutations":[{"op":"explode","u":0,"v":1}]}`, http.StatusBadRequest},
		{"query-negative-k", "POST", "/query", `{"graph":"g","k":-1}`, http.StatusBadRequest},

		// 429: the write queue's admission bound, at either durability.
		{"patch-backpressure", "PATCH", "/graphs/full", validPatch, http.StatusTooManyRequests},
		{"patch-backpressure-enqueued", "PATCH", "/graphs/full",
			`{"mutations":[{"op":"set_weight","u":0,"v":1,"w":2}],"durability":"enqueued"}`, http.StatusTooManyRequests},

		// 405: wrong method on a registered pattern.
		{"put-graph", "PUT", "/graphs/g", "", http.StatusMethodNotAllowed},
		{"delete-query", "DELETE", "/query", "", http.StatusMethodNotAllowed},

		// 404: /stats is retired; /metrics is the only counter surface.
		{"get-stats", "GET", "/stats", "", http.StatusNotFound},
	} {
		if got := rawStatus(t, ts, tc.method, tc.path, tc.body); got != tc.want {
			t.Errorf("%s: %s %s = %d, want %d", tc.name, tc.method, tc.path, got, tc.want)
		}
	}
}

// TestHTTPPatchConflict409 drives a real ErrGraphConflict through the HTTP
// surface: a PATCH whose graph is replaced mid-apply must answer 409, not
// 400. The replacement loop races the in-flight mutation's engine
// construction, which on this graph takes long enough that the first
// attempt practically always lands.
func TestHTTPPatchConflict409(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	for attempt := 0; attempt < 3; attempt++ {
		if _, err := s.AddGraph("c", repro.GridGraph(14, 14, 5, int64(attempt))); err != nil {
			t.Fatal(err)
		}
		status := make(chan int, 1)
		go func() {
			status <- rawStatus(t, ts, "PATCH", "/graphs/c",
				`{"mutations":[{"op":"set_weight","u":0,"v":1,"w":3}]}`)
		}()
		got := 0
		deadline := time.After(5 * time.Second)
	replaceLoop:
		for {
			select {
			case got = <-status:
				break replaceLoop
			case <-deadline:
				t.Fatal("PATCH never returned")
			default:
				if _, err := s.AddGraph("c", repro.GridGraph(14, 14, 5, 99)); err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if got == http.StatusConflict {
			return // surfaced as 409: contract pinned
		}
		t.Logf("attempt %d: PATCH finished with %d before a replacement landed; retrying", attempt, got)
	}
	t.Fatal("never observed a 409 from a PATCH racing a replacement")
}
