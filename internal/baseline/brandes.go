// Package baseline implements the comparison algorithms of the paper's
// evaluation: the textbook Brandes betweenness-centrality algorithm
// (BFS-based for unweighted graphs, Dijkstra-based for weighted ones), used
// as the correctness oracle throughout the test suite, and a CombBLAS-style
// batched algebraic BC (see combblas.go).
package baseline

import (
	"container/heap"

	"repro/internal/graph"
)

// Brandes computes exact betweenness centrality scores
//
//	λ(v) = Σ_{s,t ∈ V} σ(s,t,v) / σ̄(s,t)
//
// over ordered (s,t) pairs, endpoints excluded — the same convention as the
// paper's MFBC (undirected graphs therefore count each unordered pair
// twice). It dispatches on g.Weighted.
func Brandes(g *graph.Graph) []float64 {
	sources := make([]int32, g.N)
	for s := range sources {
		sources[s] = int32(s)
	}
	return BrandesSources(g, sources)
}

// BrandesSources computes the partial centrality contribution
// Σ_{s ∈ sources} δ(s,·), used to validate batched engines batch by batch.
func BrandesSources(g *graph.Graph, sources []int32) []float64 {
	adj, wts := g.OutAdjacencyLists()
	bc := make([]float64, g.N)
	t := newTraversal(g.N)
	for _, s := range sources {
		if g.Weighted {
			t.dijkstra(adj, wts, s)
		} else {
			t.bfs(adj, s)
		}
		t.accumulate(s, bc)
	}
	return bc
}

// traversal is the state of one single-source traversal, allocated once per
// call and reset per source: σ, δ, the predecessor lists (which keep their
// capacity), the vertices in the order they were settled, and the distance
// labels (dist holds BFS levels on unweighted graphs, exactly).
type traversal struct {
	sigma, delta, dist []float64
	pred               [][]int32
	order              []int32
	settled            []bool
	pq                 priorityQueue
}

// unset marks a vertex no path has reached yet.
const unset = -1.0

func newTraversal(n int) *traversal {
	return &traversal{
		sigma: make([]float64, n), delta: make([]float64, n), dist: make([]float64, n),
		pred: make([][]int32, n), order: make([]int32, 0, n), settled: make([]bool, n),
	}
}

func (t *traversal) reset(s int32) {
	clear(t.sigma)
	clear(t.delta)
	clear(t.settled)
	for v := range t.dist {
		t.dist[v] = unset
		t.pred[v] = t.pred[v][:0]
	}
	t.order = t.order[:0]
	t.sigma[s] = 1
	t.dist[s] = 0
}

// bfs settles vertices level by level; order doubles as the queue.
func (t *traversal) bfs(adj [][]int32, s int32) {
	t.reset(s)
	sigma, dist, pred := t.sigma, t.dist, t.pred
	t.order = append(t.order, s)
	for head := 0; head < len(t.order); head++ {
		u := t.order[head]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				t.order = append(t.order, v)
			}
			//lint:allow floateq levels are small integers, exact in float64
			if dist[v] == dist[u]+1 {
				sigma[v] += sigma[u]
				pred[v] = append(pred[v], u)
			}
		}
	}
}

// accumulate back-propagates the dependencies of source s over the
// predecessor lists, in reverse settling order, into bc.
func (t *traversal) accumulate(s int32, bc []float64) {
	sigma, delta := t.sigma, t.delta
	for i := len(t.order) - 1; i >= 0; i-- {
		w := t.order[i]
		for _, u := range t.pred[w] {
			delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
		}
		if w != s {
			bc[w] += delta[w]
		}
	}
}

type pqItem struct {
	v    int32
	dist float64
}

type priorityQueue []pqItem

func (q priorityQueue) Len() int            { return len(q) }
func (q priorityQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q priorityQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *priorityQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *priorityQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// dijkstra settles vertices in distance order; dist is tentative until a
// vertex is settled.
func (t *traversal) dijkstra(adj [][]int32, wts [][]float64, s int32) {
	t.reset(s)
	sigma, dist, pred, settled := t.sigma, t.dist, t.pred, t.settled
	t.pq = append(t.pq[:0], pqItem{v: s, dist: 0})
	for t.pq.Len() > 0 {
		it := heap.Pop(&t.pq).(pqItem)
		u := it.v
		//lint:allow floateq stale-heap-entry test compares a value copied bit-for-bit
		if settled[u] || it.dist != dist[u] {
			continue
		}
		settled[u] = true
		t.order = append(t.order, u)
		for k, v := range adj[u] {
			nd := it.dist + wts[u][k]
			//lint:allow floateq unset is the exact sentinel -1, which no sum of positive weights produces
			if dist[v] == unset || nd < dist[v] {
				dist[v] = nd
				sigma[v] = sigma[u]
				pred[v] = append(pred[v][:0], u)
				heap.Push(&t.pq, pqItem{v: v, dist: nd})
				//lint:allow floateq equal-weight shortest-path counting is exact by the Brandes contract
			} else if nd == dist[v] && !settled[v] {
				sigma[v] += sigma[u]
				pred[v] = append(pred[v], u)
			}
		}
	}
}
