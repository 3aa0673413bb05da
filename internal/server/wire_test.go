package server

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro"
)

// sortedKeys renders an object's key set as one comparable string.
func sortedKeys(t *testing.T, v any) string {
	t.Helper()
	obj, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("not a JSON object: %#v", v)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return strings.Join(keys, " ")
}

// TestMutateWireShape pins the JSON key sets a client of PATCH
// /graphs/{name} and POST /query decodes: the response's top level, its
// comm object and one phases entry, on a shared-memory engine and on a
// DynProcs: 4 fused apply, plus /query's stats.comm. The literals were
// written from PR 24's output; the keys PR 25 added are marked. A key may
// be added here, never removed or renamed — with one recorded exception:
// PR 29 deleted the engine's sampled mode and with it PATCH's `sampled`
// (and `err_bound`, which only sampled applies carried); a sampled
// answer's bound is /query's (TestQuerySampledErrBound).
func TestMutateWireShape(t *testing.T) {
	const (
		// runs is additive (PR 25): the engine's region count, which the
		// one comm summary carries everywhere.
		commKeys  = "bytes comm_sec flops model_sec msgs runs wall_sec"
		phaseKeys = "bytes flops model_sec msgs name wall_ms"
	)
	for _, tc := range []struct {
		name   string
		cfg    Config
		top    string
		phases bool
	}{
		// wall_ms is additive (PR 25): the report's own wall field, beside
		// the compute_ms that has always carried the same number.
		{"shared", Config{Workers: 1},
			"affected_sources applied coalesced_batches comm compute_ms graph m n old_version " +
				"queue_wait_ms seq strategy version wall_ms", false},
		{"fused-p4", Config{Workers: 1, DynProcs: 4, DirtyThreshold: -1},
			"affected_sources applied coalesced_batches comm compute_ms fused graph m n old_version " +
				"phases plan procs queue_wait_ms seq strategy version wall_ms", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			ts := httptest.NewServer(NewMux(s))
			defer ts.Close()
			g := repro.GridGraph(5, 5, 3, 7)
			if _, err := s.AddGraph("g", g.Clone()); err != nil {
				t.Fatal(err)
			}
			var body map[string]any
			doJSON(t, ts, "PATCH", "/graphs/g", MutateRequest{Mutations: []repro.Mutation{
				{Op: repro.MutSetWeight, U: g.Edges[3].U, V: g.Edges[3].V, W: 11},
			}}, http.StatusOK, &body)
			if got := sortedKeys(t, body); got != tc.top {
				t.Errorf("PATCH keys:\n got %s\nwant %s", got, tc.top)
			}
			if got := sortedKeys(t, body["comm"]); got != commKeys {
				t.Errorf("PATCH comm keys: got %s, want %s", got, commKeys)
			}
			if tc.phases {
				if got := sortedKeys(t, body["phases"].([]any)[0]); got != phaseKeys {
					t.Errorf("PATCH phases[0] keys: got %s, want %s", got, phaseKeys)
				}
			}
			var q map[string]any
			doJSON(t, ts, "POST", "/query", QueryRequest{Graph: "g", Procs: tc.cfg.DynProcs}, http.StatusOK, &q)
			if got := sortedKeys(t, q["stats"].(map[string]any)["comm"]); got != commKeys {
				t.Errorf("/query stats.comm keys: got %s, want %s", got, commKeys)
			}
		})
	}
}

// TestQuerySampledErrBound: a samples query carries the estimate's 95%
// half-width as err_bound — repro.ApproximateBC's, normalized with the
// scores — and an exact query does not carry the key at all.
func TestQuerySampledErrBound(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	g := repro.GridGraph(6, 6, 1, 9)
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	for _, norm := range []bool{false, true} {
		var q map[string]any
		doJSON(t, ts, "POST", "/query", QueryRequest{Graph: "g", Samples: 6, Seed: 2, Normalize: norm}, http.StatusOK, &q)
		want, err := repro.ApproximateBC(g, 6, 2, repro.Options{Workers: 1, Normalize: norm})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := q["err_bound"].(float64); !ok || !(got > 0) || got != want.ErrBound {
			t.Fatalf("normalize=%v: samples query err_bound = %v, want %v", norm, q["err_bound"], want.ErrBound)
		}
	}
	var q map[string]any
	doJSON(t, ts, "POST", "/query", QueryRequest{Graph: "g"}, http.StatusOK, &q)
	if _, ok := q["err_bound"]; ok {
		t.Fatalf("exact query carries err_bound: %v", q["err_bound"])
	}
}
