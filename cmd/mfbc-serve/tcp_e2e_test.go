package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/machine/tcpnet"
	"repro/internal/rankrun"
	"repro/internal/server"
)

// reservePorts grabs n loopback addresses. The listeners are closed
// before the mesh binds them; the rendezvous retry window absorbs the
// tiny race.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestTCPTransportEndToEnd drives the full production deployment shape in
// one process: buildServer in -transport tcp mode as rank 0, three
// worker ranks running the cmd/mfbc-rank loop, a PATCH over HTTP — whose
// machine regions now run over real TCP — and the differential against
// an identical -transport sim server. It also pins the observability
// acceptance criterion: after the PATCH, /metrics reports nonzero
// measured wall seconds alongside the modeled seconds for every machine
// phase of the apply.
func TestTCPTransportEndToEnd(t *testing.T) {
	const ranks = 4
	peers := reservePorts(t, ranks)

	var wg sync.WaitGroup
	workerErrs := make([]error, ranks)
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := tcpnet.Join(r, peers, tcpnet.Options{})
			if err != nil {
				workerErrs[r] = err
				return
			}
			defer tr.Close()
			workerErrs[r] = rankrun.ServeWorker(tr)
		}(r)
	}

	tcpSrv, cleanup, err := buildServer(server.Config{Workers: 1, CacheSize: 64},
		serveConfig{transport: "tcp", peers: strings.Join(peers, ",")}, "")
	if err != nil {
		t.Fatalf("tcp buildServer: %v", err)
	}
	simSrv, _, err := buildServer(server.Config{Workers: 1, CacheSize: 64, DynProcs: ranks}, serveConfig{}, "")
	if err != nil {
		t.Fatalf("sim buildServer: %v", err)
	}

	tcpTS := httptest.NewServer(server.NewMux(tcpSrv))
	defer tcpTS.Close()
	simTS := httptest.NewServer(server.NewMux(simSrv))
	defer simTS.Close()

	do := func(ts *httptest.Server, method, path string, body any, out any) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}

	spec := server.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, MaxWeight: 5, Seed: 7}
	batch := server.MutateRequest{Mutations: []repro.Mutation{
		{Op: repro.MutAddEdge, U: 0, V: 35, W: 2},
		{Op: repro.MutSetWeight, U: 0, V: 1, W: 4},
	}}
	results := make(map[string]server.QueryResult)
	for name, ts := range map[string]*httptest.Server{"tcp": tcpTS, "sim": simTS} {
		do(ts, http.MethodPost, "/graphs/road", spec, nil)
		var mres server.MutateResult
		do(ts, http.MethodPatch, "/graphs/road", batch, &mres)
		if mres.Procs != ranks {
			t.Fatalf("%s PATCH ran with procs=%d, want %d", name, mres.Procs, ranks)
		}
		var qres server.QueryResult
		do(ts, http.MethodPost, "/query", server.QueryRequest{Graph: "road", IncludeScores: true}, &qres)
		results[name] = qres
	}

	tcpBC, simBC := results["tcp"].Scores, results["sim"].Scores
	if len(tcpBC) == 0 || len(tcpBC) != len(simBC) {
		t.Fatalf("score shapes: tcp %d, sim %d", len(tcpBC), len(simBC))
	}
	for v := range tcpBC {
		if tcpBC[v] != simBC[v] {
			t.Fatalf("score[%d]: tcp %v != sim %v", v, tcpBC[v], simBC[v])
		}
	}

	// Acceptance: after the tcpnet PATCH, /metrics carries the
	// modeled-vs-measured pair for every machine phase of the apply. The
	// modeled totals are part of the deterministic program, so they must
	// equal the sim server's to the bit; measured wall is real TCP time,
	// so it only has to be present per phase and nonzero in aggregate.
	scrape := func(ts *httptest.Server) (modeled, measured map[string]float64) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return phaseTotals(t, string(raw), "mfbc_phase_model_seconds_total"),
			phaseTotals(t, string(raw), "mfbc_phase_wall_seconds_total")
	}
	tcpModeled, tcpMeasured := scrape(tcpTS)
	simModeled, _ := scrape(simTS)
	if len(tcpModeled) == 0 {
		t.Fatal("no mfbc_phase_model_seconds_total series after a distributed PATCH")
	}
	if len(tcpModeled) != len(simModeled) {
		t.Fatalf("phase sets diverged: tcp %v, sim %v", tcpModeled, simModeled)
	}
	var wallSum float64
	for phase, m := range tcpModeled {
		if sm, ok := simModeled[phase]; !ok || sm != m {
			t.Errorf("phase %q: tcp modeled total %v, sim %v", phase, m, simModeled[phase])
		}
		w, ok := tcpMeasured[phase]
		if !ok {
			t.Errorf("phase %q: no measured wall series", phase)
		}
		wallSum += w
	}
	if wallSum <= 0 {
		t.Fatalf("measured wall totals sum to %v, want > 0: %v", wallSum, tcpMeasured)
	}

	cleanup() // shuts the worker fleet down
	wg.Wait()
	for r := 1; r < ranks; r++ {
		if workerErrs[r] != nil {
			t.Errorf("worker rank %d: %v", r, workerErrs[r])
		}
	}
}

// phaseTotals extracts {phase label → value} for one metric family from a
// Prometheus text exposition.
func phaseTotals(t *testing.T, exposition, family string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		rest := line[len(family)+1:]
		end := strings.Index(rest, "}")
		if end < 0 {
			t.Fatalf("unparseable metric line %q", line)
		}
		label := rest[:end]
		label = strings.TrimPrefix(label, `phase="`)
		label = strings.TrimSuffix(label, `"`)
		val, err := strconv.ParseFloat(strings.TrimSpace(rest[end+1:]), 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[label] = val
	}
	return out
}
