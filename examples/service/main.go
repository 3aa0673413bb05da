// Service walkthrough: embed the BC query service in-process, expose it
// over HTTP (the same mux cmd/mfbc-serve uses), and run a client session
// demonstrating the tentpole behaviors — registry, result caching,
// single-flight coalescing of concurrent identical queries, and the cheap
// sampling path for interactive use.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	// The embeddable service: one Workers pool shared by all queries so a
	// busy host is never oversubscribed, plus a bounded result cache.
	svc := server.New(server.Config{Workers: 0, CacheSize: 128})
	ts := httptest.NewServer(server.NewMux(svc))
	defer ts.Close()
	fmt.Printf("mfbc service listening on %s\n\n", ts.URL)

	// --- 1. Register a graph (what `curl -X POST /graphs/social` does).
	post(ts.URL+"/graphs/social", server.GraphSpec{
		Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 42,
	})

	// --- 2. Exact top-10 query: first call computes...
	res := query(ts.URL, server.QueryRequest{Graph: "social", K: 10})
	fmt.Printf("exact top-10 (computed in %.1f ms, cache_hit=%v):\n",
		res.Stats.ComputeMS, res.Stats.CacheHit)
	for i, vs := range res.TopK {
		fmt.Printf("  #%-2d vertex %-6d bc %.6g\n", i+1, vs.Vertex, vs.Score)
	}

	// --- 3. ...and the repeat is served from cache.
	res = query(ts.URL, server.QueryRequest{Graph: "social", K: 10})
	fmt.Printf("\nrepeat query: cache_hit=%v (original compute %.1f ms)\n",
		res.Stats.CacheHit, res.Stats.ComputeMS)

	// --- 4. Ten concurrent identical distributed queries: single-flight
	// collapses them onto one SpGEMM sweep.
	var wg sync.WaitGroup
	results := make([]*server.QueryResult, 10)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = query(ts.URL, server.QueryRequest{Graph: "social", Procs: 16, K: 1})
		}(i)
	}
	wg.Wait()
	coalesced := 0
	for _, r := range results {
		if r.Stats.Coalesced || r.Stats.CacheHit {
			coalesced++
		}
	}
	fmt.Printf("\n10 concurrent distributed queries: %d shared one compute (plan %s, modeled %.2g s comm)\n",
		coalesced, results[0].Plan, results[0].Stats.Comm.CommSec)

	// --- 5. The interactive cheap path: sampling-based approximation at a
	// fraction of the cost, good for exploratory top-k.
	res = query(ts.URL, server.QueryRequest{Graph: "social", Samples: 32, Seed: 7, K: 5})
	fmt.Printf("\napproximate top-5 from 32 sampled sources (%.1f ms):\n", res.Stats.ComputeMS)
	for i, vs := range res.TopK {
		fmt.Printf("  #%-2d vertex %-6d bc≈%.6g\n", i+1, vs.Vertex, vs.Score)
	}

	// --- 6. Server-wide counters: scrape /metrics, the one counter surface.
	m := metrics(ts.URL)
	fmt.Printf("\nserver metrics: %v queries, %v cache hits, %v coalesced, %v computes\n",
		m["mfbc_queries_total"], m["mfbc_query_cache_hits_total"],
		m["mfbc_query_coalesced_total"], m["mfbc_computes_total"])
}

func post(url string, body any) {
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
}

func query(base string, req server.QueryRequest) *server.QueryResult {
	b, _ := json.Marshal(req)
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("query: %s", resp.Status)
	}
	var out server.QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	return &out
}

func metrics(base string) obs.Samples {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	m, err := obs.ParseText(string(text))
	if err != nil {
		log.Fatal(err)
	}
	return m
}
