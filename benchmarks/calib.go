package main

import (
	"encoding/json"
	"net/http"

	"repro/internal/graph"
)

// brandes is the benchmark's own calibrator and correctness oracle: a
// plain single-threaded Brandes pass (BFS when the graph is unweighted,
// binary-heap Dijkstra when weighted) over buffers that are sized on the
// first load and reused afterwards, so a pass allocates nothing. It lives
// here, not in internal/baseline, so that no later PR can move the
// yardstick the calibrated timings are divided by.
type brandes struct {
	n        int
	weighted bool
	rowPtr   []int32 // out-adjacency in CSR form
	col      []int32
	wt       []float64
	eid      []int32 // index in g.Edges of the edge each arc came from

	sigma, delta, dist []float64
	settled            []bool
	order              []int32 // vertices in settling order (also the BFS queue)
	heap               []heapItem
}

type heapItem struct {
	d float64
	v int32
}

// load (re)builds the out-adjacency of g in place.
func (b *brandes) load(g *graph.Graph) {
	n := g.N
	arcs := len(g.Edges)
	if !g.Directed {
		arcs *= 2
	}
	b.n, b.weighted = n, g.Weighted
	b.rowPtr = grow(b.rowPtr, n+1)
	b.col = grow(b.col, arcs)
	b.wt = grow(b.wt, arcs)
	b.eid = grow(b.eid, arcs)
	b.sigma = grow(b.sigma, n)
	b.delta = grow(b.delta, n)
	b.dist = grow(b.dist, n)
	b.settled = grow(b.settled, n)
	b.order = grow(b.order, n)[:0]
	if cap(b.heap) < arcs+1 {
		b.heap = make([]heapItem, 0, arcs+1)
	}
	for i := range b.rowPtr {
		b.rowPtr[i] = 0
	}
	for _, e := range g.Edges {
		b.rowPtr[e.U+1]++
		if !g.Directed {
			b.rowPtr[e.V+1]++
		}
	}
	for i := 0; i < n; i++ {
		b.rowPtr[i+1] += b.rowPtr[i]
	}
	// Fill using delta as the per-row cursor scratch (it is reset per pass).
	next := b.delta
	for i := 0; i < n; i++ {
		next[i] = float64(b.rowPtr[i])
	}
	put := func(u, v int32, w float64, id int) {
		k := int32(next[u])
		b.col[k], b.wt[k], b.eid[k] = v, w, int32(id)
		next[u]++
	}
	for id, e := range g.Edges {
		put(e.U, e.V, e.W, id)
		if !g.Directed {
			put(e.V, e.U, e.W, id)
		}
	}
}

// edgeUsage counts, per edge of the loaded graph, the sources whose
// shortest-path DAG contains it: the number of sources a reweight of that
// edge can affect. Script generation uses it to draw mutations from a
// stated class; it is not part of any timed section.
func (b *brandes) edgeUsage(edges int) []int {
	used := make([]int, edges)
	for s := int32(0); int(s) < b.n; s++ {
		if b.weighted {
			b.dijkstra(s)
		} else {
			b.bfs(s)
		}
		for _, u := range b.order {
			for k := b.rowPtr[u]; k < b.rowPtr[u+1]; k++ {
				step := 1.0
				if b.weighted {
					step = b.wt[k]
				}
				//lint:allow floateq the forward pass stored exactly this sum when the arc is on a shortest path
				if b.dist[b.col[k]] == b.dist[u]+step {
					used[b.eid[k]]++
				}
			}
		}
	}
	return used
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// run overwrites bc with Σ_{s∈sources} δ(s,·), the same partial sum the
// engines under test accumulate for a source batch.
func (b *brandes) run(sources []int32, bc []float64) {
	for i := range bc {
		bc[i] = 0
	}
	for _, s := range sources {
		if b.weighted {
			b.dijkstra(s)
		} else {
			b.bfs(s)
		}
		b.accumulate(s, bc)
	}
}

// all is run over every vertex as a source (full betweenness centrality).
func (b *brandes) all(bc []float64) {
	for i := range bc {
		bc[i] = 0
	}
	for s := int32(0); int(s) < b.n; s++ {
		if b.weighted {
			b.dijkstra(s)
		} else {
			b.bfs(s)
		}
		b.accumulate(s, bc)
	}
}

func (b *brandes) reset() {
	for i := 0; i < b.n; i++ {
		b.sigma[i], b.delta[i], b.dist[i], b.settled[i] = 0, 0, -1, false
	}
	b.order = b.order[:0]
}

func (b *brandes) bfs(s int32) {
	b.reset()
	b.sigma[s], b.dist[s] = 1, 0
	b.order = append(b.order, s)
	for head := 0; head < len(b.order); head++ {
		u := b.order[head]
		du := b.dist[u]
		for k := b.rowPtr[u]; k < b.rowPtr[u+1]; k++ {
			v := b.col[k]
			if b.dist[v] < 0 {
				b.dist[v] = du + 1
				b.order = append(b.order, v)
			}
			//lint:allow floateq BFS levels are small integers held in float64
			if b.dist[v] == du+1 {
				b.sigma[v] += b.sigma[u]
			}
		}
	}
}

func (b *brandes) dijkstra(s int32) {
	b.reset()
	// dist holds tentative distances until a vertex settles.
	b.sigma[s], b.dist[s] = 1, 0
	h := append(b.heap[:0], heapItem{0, s})
	for len(h) > 0 {
		it := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h, 0)
		u := it.v
		//lint:allow floateq stale-heap-entry test compares a value copied bit-for-bit
		if b.settled[u] || it.d != b.dist[u] {
			continue
		}
		b.settled[u] = true
		b.order = append(b.order, u)
		for k := b.rowPtr[u]; k < b.rowPtr[u+1]; k++ {
			v := b.col[k]
			nd := it.d + b.wt[k]
			switch {
			case b.dist[v] < 0 || nd < b.dist[v]:
				b.dist[v] = nd
				b.sigma[v] = b.sigma[u]
				h = append(h, heapItem{nd, v})
				siftUp(h, len(h)-1)
			//lint:allow floateq equal-weight shortest-path counting is exact by the Brandes contract
			case nd == b.dist[v] && !b.settled[v]:
				b.sigma[v] += b.sigma[u]
			}
		}
	}
	b.heap = h[:0]
}

// accumulate is the dependency back-propagation in successor form: when u
// is processed, every v it precedes on a shortest path settled later and
// is already final.
func (b *brandes) accumulate(s int32, bc []float64) {
	for i := len(b.order) - 1; i >= 0; i-- {
		u := b.order[i]
		du := b.dist[u]
		var d float64
		for k := b.rowPtr[u]; k < b.rowPtr[u+1]; k++ {
			v := b.col[k]
			step := 1.0
			if b.weighted {
				step = b.wt[k]
			}
			//lint:allow floateq the forward pass stored exactly this sum when the arc is on a shortest path
			if b.dist[v] == du+step {
				d += b.sigma[u] / b.sigma[v] * (1 + b.delta[v])
			}
		}
		b.delta[u] = d
		if u != s {
			bc[u] += d
		}
	}
}

func siftUp(h []heapItem, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []heapItem, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].d < h[l].d {
			m = r
		}
		if h[i].d <= h[m].d {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// calibHTTPReply is the hit-sized body the bare handler writes: ten ranked
// vertices and the per-query metadata, like a top-10 cache hit.
type calibHTTPReply struct {
	Graph   string           `json:"graph"`
	Version uint64           `json:"version"`
	Engine  string           `json:"engine"`
	Procs   int              `json:"procs"`
	TopK    []calibHTTPScore `json:"topk"`
	Stats   map[string]any   `json:"stats"`
}

type calibHTTPScore struct {
	Vertex int     `json:"vertex"`
	Score  float64 `json:"score"`
}

// calibHTTPHandler is the HTTP calibrator: decode a query-sized JSON body,
// write a hit-sized JSON reply, nothing else. A hit's round trip is
// divided by this handler's, so loopback and scheduler weather cancel.
func calibHTTPHandler() http.Handler {
	reply := calibHTTPReply{
		Graph: "hot", Version: 0x9e3779b97f4a7c15, Engine: "mfbc", Procs: 1,
		Stats: map[string]any{"cache_hit": true, "coalesced": false, "compute_ms": 123.456},
	}
	for i := 0; i < 10; i++ {
		reply.TopK = append(reply.TopK, calibHTTPScore{Vertex: 100 + i, Score: 12345.678901234 / float64(i+1)})
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Graph string `json:"graph"`
			K     int    `json:"k"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reply) // a failed write surfaces client-side as a short body
	})
}
