// Graph mutation: the write API of the streaming subsystem. A Graph built
// by any generator or loader can evolve through AddEdge / RemoveEdge /
// SetWeight / AddVertex, each validating the same structural invariants
// Validate enforces (coordinates in range, strictly positive finite
// weights, no self-loops, canonical undirected orientation, no
// multi-edges). Mutation records the operations compactly so engines
// downstream (internal/dynamic) can log, replay, and compact histories.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// MutOp names one mutation kind. The string values are the wire format of
// the server's PATCH route.
type MutOp string

const (
	OpAddEdge    MutOp = "add_edge"    // insert edge (U,V) with weight W (0 → 1)
	OpRemoveEdge MutOp = "remove_edge" // delete edge (U,V)
	OpSetWeight  MutOp = "set_weight"  // change the weight of existing edge (U,V) to W
	OpAddVertex  MutOp = "add_vertex"  // append one isolated vertex (id = old N)
)

// Mutation is one graph edit. For undirected graphs the (U,V) orientation
// is canonicalized on application, so (3,1) and (1,3) name the same edge.
type Mutation struct {
	Op MutOp   `json:"op"`
	U  int32   `json:"u,omitempty"`
	V  int32   `json:"v,omitempty"`
	W  float64 `json:"w,omitempty"`
}

func (m Mutation) String() string {
	switch m.Op {
	case OpAddVertex:
		return string(m.Op)
	case OpRemoveEdge:
		return fmt.Sprintf("%s(%d,%d)", m.Op, m.U, m.V)
	default:
		return fmt.Sprintf("%s(%d,%d,%g)", m.Op, m.U, m.V, m.W)
	}
}

// Clone returns a deep copy of g; mutating the copy leaves g untouched.
func (g *Graph) Clone() *Graph {
	c := *g
	c.Edges = append([]Edge(nil), g.Edges...)
	return &c
}

// orient canonicalizes an edge key for lookup: undirected edges are stored
// with U ≤ V.
func (g *Graph) orient(u, v int32) (int32, int32) {
	if !g.Directed && u > v {
		u, v = v, u
	}
	return u, v
}

// ensureSorted restores the canonical (U,V) edge order the generators and
// dedupeEdges establish, so edgePos can binary-search. A sorted check is
// O(m) and almost always hits; callers that mutate through this API keep
// the order intact.
func (g *Graph) ensureSorted() {
	sorted := sort.SliceIsSorted(g.Edges, func(a, b int) bool {
		if g.Edges[a].U != g.Edges[b].U {
			return g.Edges[a].U < g.Edges[b].U
		}
		return g.Edges[a].V < g.Edges[b].V
	})
	if !sorted {
		sort.Slice(g.Edges, func(a, b int) bool {
			if g.Edges[a].U != g.Edges[b].U {
				return g.Edges[a].U < g.Edges[b].U
			}
			return g.Edges[a].V < g.Edges[b].V
		})
	}
}

// edgePos returns the insertion position of (u, v) in the sorted edge list
// and whether an edge with that key is already present. Callers pass
// oriented coordinates.
func (g *Graph) edgePos(u, v int32) (int, bool) {
	i := sort.Search(len(g.Edges), func(k int) bool {
		e := g.Edges[k]
		return e.U > u || (e.U == u && e.V >= v)
	})
	return i, i < len(g.Edges) && g.Edges[i].U == u && g.Edges[i].V == v
}

// FindEdge reports the weight of edge (u, v) and whether it exists. The
// orientation is canonicalized for undirected graphs. Unlike the mutation
// methods it is strictly read-only (a linear scan), so it is safe on
// shared immutable snapshots.
func (g *Graph) FindEdge(u, v int32) (float64, bool) {
	if u < 0 || int(u) >= g.N || v < 0 || int(v) >= g.N {
		return 0, false
	}
	u, v = g.orient(u, v)
	for _, e := range g.Edges {
		if e.U == u && e.V == v {
			return e.W, true
		}
	}
	return 0, false
}

func (g *Graph) checkEndpoints(op MutOp, u, v int32) error {
	if u < 0 || int(u) >= g.N || v < 0 || int(v) >= g.N {
		return fmt.Errorf("graph %q: %s: endpoint (%d,%d) outside n=%d", g.Name, op, u, v, g.N)
	}
	if u == v {
		return fmt.Errorf("graph %q: %s: self-loop at %d", g.Name, op, u)
	}
	return nil
}

func checkWeight(op MutOp, w float64) error {
	if !(w > 0) || math.IsInf(w, 1) || math.IsNaN(w) {
		return fmt.Errorf("graph: %s: nonpositive or non-finite weight %v", op, w)
	}
	return nil
}

// AddEdge inserts edge (u, v) with weight w (w == 0 selects weight 1).
// Duplicate edges are rejected: the graph stays a simple graph.
func (g *Graph) AddEdge(u, v int32, w float64) error {
	if err := g.checkEndpoints(OpAddEdge, u, v); err != nil {
		return err
	}
	if w == 0 { //lint:allow floateq zero is the default-weight sentinel, never computed
		w = 1
	}
	if err := checkWeight(OpAddEdge, w); err != nil {
		return err
	}
	u, v = g.orient(u, v)
	g.ensureSorted()
	i, exists := g.edgePos(u, v)
	if exists {
		return fmt.Errorf("graph %q: add_edge: edge (%d,%d) already present", g.Name, u, v)
	}
	g.Edges = append(g.Edges, Edge{})
	copy(g.Edges[i+1:], g.Edges[i:])
	g.Edges[i] = Edge{U: u, V: v, W: w}
	if w != 1 { //lint:allow floateq stored weight compared bit-for-bit to decide the Weighted flag
		g.Weighted = true
	}
	return nil
}

// RemoveEdge deletes edge (u, v); missing edges are an error so callers
// notice drifted views of the graph.
func (g *Graph) RemoveEdge(u, v int32) error {
	if err := g.checkEndpoints(OpRemoveEdge, u, v); err != nil {
		return err
	}
	u, v = g.orient(u, v)
	g.ensureSorted()
	i, exists := g.edgePos(u, v)
	if !exists {
		return fmt.Errorf("graph %q: remove_edge: no edge (%d,%d)", g.Name, u, v)
	}
	g.Edges = append(g.Edges[:i], g.Edges[i+1:]...)
	return nil
}

// SetWeight changes the weight of existing edge (u, v) to w.
func (g *Graph) SetWeight(u, v int32, w float64) error {
	if err := g.checkEndpoints(OpSetWeight, u, v); err != nil {
		return err
	}
	if err := checkWeight(OpSetWeight, w); err != nil {
		return err
	}
	u, v = g.orient(u, v)
	g.ensureSorted()
	i, exists := g.edgePos(u, v)
	if !exists {
		return fmt.Errorf("graph %q: set_weight: no edge (%d,%d)", g.Name, u, v)
	}
	g.Edges[i].W = w
	if w != 1 { //lint:allow floateq stored weight compared bit-for-bit to decide the Weighted flag
		g.Weighted = true
	}
	return nil
}

// AddVertex appends one isolated vertex and returns its id.
func (g *Graph) AddVertex() int32 {
	g.N++
	return int32(g.N - 1)
}

// Apply executes one mutation.
func (g *Graph) Apply(m Mutation) error {
	switch m.Op {
	case OpAddEdge:
		return g.AddEdge(m.U, m.V, m.W)
	case OpRemoveEdge:
		return g.RemoveEdge(m.U, m.V)
	case OpSetWeight:
		return g.SetWeight(m.U, m.V, m.W)
	case OpAddVertex:
		g.AddVertex()
		return nil
	default:
		return fmt.Errorf("graph: unknown mutation op %q", m.Op)
	}
}

// ApplyAll executes a batch in order, stopping at the first failure. The
// graph is left partially mutated on error; callers wanting atomic batches
// apply to a Clone and swap on success (internal/dynamic does).
func (g *Graph) ApplyAll(batch []Mutation) (int, error) {
	for i, m := range batch {
		if err := g.Apply(m); err != nil {
			return i, fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	return len(batch), nil
}

// Compact rewrites a mutation history to its minimal replay-equivalent
// form: per edge key the operation history collapses to at most one
// operation (add+remove cancels, remove+add becomes set_weight, chained
// set_weights keep only the last), and add_vertex operations are hoisted to
// the front (they only increment N, so edges referencing the new ids stay
// valid). Replaying the result on the graph the history started from yields
// the same final graph. muts is not modified.
//
// directed states the orientation of the graph the history applies to: for
// undirected graphs (directed == false) mutations recorded as (u,v) and
// (v,u) name the same edge and compact into one history.
func Compact(directed bool, muts []Mutation) []Mutation {
	type hist struct {
		first Mutation // first op for this key in the history
		last  Mutation // last weight-carrying op (add or set)
		alive bool     // edge exists after replay of this key's history
	}
	var vertices int
	keys := make(map[[2]int32]*hist)
	orderedKeys := make([][2]int32, 0, len(muts))
	for _, m := range muts {
		if m.Op == OpAddVertex {
			vertices++
			continue
		}
		u, v := m.U, m.V
		if !directed && u > v {
			u, v = v, u
		}
		k := [2]int32{u, v}
		h, ok := keys[k]
		if !ok {
			h = &hist{first: m}
			// Before its first op, the edge exists iff that op is legal on an
			// existing edge (remove/set imply existence; add implies absence).
			keys[k] = h
			orderedKeys = append(orderedKeys, k)
			h.alive = m.Op != OpAddEdge
		}
		switch m.Op {
		case OpAddEdge:
			h.alive = true
			h.last = m
		case OpSetWeight:
			h.last = m
		case OpRemoveEdge:
			h.alive = false
			h.last = Mutation{}
		}
	}
	out := make([]Mutation, 0, vertices+len(orderedKeys))
	for i := 0; i < vertices; i++ {
		out = append(out, Mutation{Op: OpAddVertex})
	}
	for _, k := range orderedKeys {
		h := keys[k]
		existedBefore := h.first.Op != OpAddEdge
		switch {
		case h.alive && !existedBefore:
			out = append(out, Mutation{Op: OpAddEdge, U: k[0], V: k[1], W: h.last.W})
		case h.alive && existedBefore:
			// remove+add or set chains on a pre-existing edge: one set_weight,
			// and only if some op actually changed the weight. An add_edge
			// recorded with the W == 0 default-weight sentinel re-created the
			// edge at weight 1, so the compacted set_weight must say 1
			// explicitly — set_weight has no zero sentinel and rejects w ≤ 0.
			if h.last.Op != "" {
				w := h.last.W
				if h.last.Op == OpAddEdge && w == 0 { //lint:allow floateq zero is the add_edge default-weight sentinel, never computed
					w = 1
				}
				out = append(out, Mutation{Op: OpSetWeight, U: k[0], V: k[1], W: w})
			}
		case !h.alive && existedBefore:
			out = append(out, Mutation{Op: OpRemoveEdge, U: k[0], V: k[1]})
		}
		// !alive && !existedBefore: transient edge, drops out entirely.
	}
	return out
}

// Fingerprint returns a structural FNV-1a hash of the graph (vertex count,
// orientation, weights, and the full edge list). Any edit to the edge set
// changes it; the server and dynamic engine use it as the graph version.
func Fingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.N))
	flags := uint64(0)
	if g.Directed {
		flags |= 1
	}
	if g.Weighted {
		flags |= 2
	}
	put(flags)
	for _, e := range g.Edges {
		put(uint64(uint32(e.U))<<32 | uint64(uint32(e.V)))
		put(math.Float64bits(e.W))
	}
	return h.Sum64()
}
