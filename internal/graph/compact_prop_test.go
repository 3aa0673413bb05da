package graph

import (
	"math/rand"
	"testing"
)

// Property tests pinning Compact as the coalescing oracle of the server's
// group-commit ingestion path: for any valid interleaved
// add/remove/set_weight history, replaying the compacted batch on the graph
// the history started from must yield the same topology as applying the
// history one mutation at a time.
//
// The Weighted flag is deliberately excluded from the comparison: it is a
// monotone "some weight ever differed from 1" bit, so a history that sets
// a weight and later restores 1 leaves it raised on the sequential copy
// while the compacted replay (which never sees the transient weight) does
// not. Both describe the identical edge set and weights.

// randMutation proposes one mutation against g. It may be invalid (the
// caller applies it and skips rejects), but it is biased toward valid ops
// so histories stay dense in interesting interleavings.
func randMutation(rng *rand.Rand, g *Graph) Mutation {
	pickEdge := func() (int32, int32, bool) {
		if len(g.Edges) == 0 {
			return 0, 0, false
		}
		e := g.Edges[rng.Intn(len(g.Edges))]
		if !g.Directed && rng.Intn(2) == 0 {
			return e.V, e.U, true // exercise orientation canonicalization
		}
		return e.U, e.V, true
	}
	randWeight := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0 // add_edge default-weight sentinel
		case 1:
			return 1
		case 2:
			return float64(1 + rng.Intn(8))
		default:
			return 0.25 + rng.Float64()*4
		}
	}
	switch k := rng.Intn(12); {
	case k == 0:
		return Mutation{Op: OpAddVertex}
	case k < 5:
		u, v := int32(rng.Intn(g.N)), int32(rng.Intn(g.N))
		return Mutation{Op: OpAddEdge, U: u, V: v, W: randWeight()}
	case k < 8:
		if u, v, ok := pickEdge(); ok {
			return Mutation{Op: OpRemoveEdge, U: u, V: v}
		}
		return Mutation{Op: OpAddVertex}
	default:
		if u, v, ok := pickEdge(); ok {
			w := randWeight()
			if w == 0 { //lint:allow floateq zero is the add_edge sentinel; set_weight has none
				w = 1
			}
			return Mutation{Op: OpSetWeight, U: u, V: v, W: w}
		}
		u, v := int32(rng.Intn(g.N)), int32(rng.Intn(g.N))
		return Mutation{Op: OpAddEdge, U: u, V: v, W: randWeight()}
	}
}

// randHistory grows a valid history of exactly steps mutations by applying
// proposals to work (mutated in place) and keeping the ones that succeed.
func randHistory(rng *rand.Rand, work *Graph, steps int) []Mutation {
	hist := make([]Mutation, 0, steps)
	for tries := 0; len(hist) < steps && tries < steps*20; tries++ {
		m := randMutation(rng, work)
		if err := work.Apply(m); err != nil {
			continue
		}
		hist = append(hist, m)
	}
	return hist
}

func assertSameTopology(t *testing.T, label string, want, got *Graph) {
	t.Helper()
	if want.N != got.N || want.Directed != got.Directed {
		t.Fatalf("%s: shape differs: want n=%d directed=%v, got n=%d directed=%v",
			label, want.N, want.Directed, got.N, got.Directed)
	}
	want.ensureSorted()
	got.ensureSorted()
	if len(want.Edges) != len(got.Edges) {
		t.Fatalf("%s: edge count differs: want %d, got %d", label, len(want.Edges), len(got.Edges))
	}
	for i := range want.Edges {
		if want.Edges[i] != got.Edges[i] { //lint:allow floateq weights must round-trip bit-for-bit through compaction
			t.Fatalf("%s: edge %d differs: want %+v, got %+v", label, i, want.Edges[i], got.Edges[i])
		}
	}
}

// replayCompacted compacts hist and applies it to a clone of base,
// failing the test if the compacted batch does not replay cleanly.
func replayCompacted(t *testing.T, label string, base *Graph, hist []Mutation) *Graph {
	t.Helper()
	compacted := Compact(base.Directed, hist)
	if len(compacted) > len(hist) {
		t.Fatalf("%s: compaction grew the history: %d ops -> %d", label, len(hist), len(compacted))
	}
	coal := base.Clone()
	if i, err := coal.ApplyAll(compacted); err != nil {
		t.Fatalf("%s: compacted replay failed at op %d: %v\nhistory:   %v\ncompacted: %v",
			label, i, err, hist, compacted)
	}
	return coal
}

// TestCompactCoalescingOracle is the correctness keystone of group-commit
// ingestion: across seeded random graphs and histories, coalesced
// application (one compacted batch) and one-at-a-time application yield
// identical graphs.
func TestCompactCoalescingOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		base := Uniform(6+rng.Intn(12), 10+rng.Intn(24), directed, seed)
		if seed%3 == 0 {
			base.AddUniformWeights(1, 5, seed+1)
		}
		seq := base.Clone()
		hist := randHistory(rng, seq, 40)
		if len(hist) == 0 {
			t.Fatalf("seed %d: generated no valid mutations", seed)
		}
		coal := replayCompacted(t, "seed", base, hist)
		assertSameTopology(t, "seed", seq, coal)

		// Prefix closure: the oracle must hold on every prefix of the
		// history, since a group commit can cut the queue at any point.
		for _, cut := range []int{1, len(hist) / 3, len(hist) / 2, len(hist) - 1} {
			if cut <= 0 || cut >= len(hist) {
				continue
			}
			pseq := base.Clone()
			if _, err := pseq.ApplyAll(hist[:cut]); err != nil {
				t.Fatalf("seed %d: sequential prefix %d failed: %v", seed, cut, err)
			}
			pcoal := replayCompacted(t, "prefix", base, hist[:cut])
			assertSameTopology(t, "prefix", pseq, pcoal)
		}
	}
}

// TestCompactRestoresDefaultWeight pins the regression the oracle exposed:
// removing a pre-existing edge and re-adding it with the W == 0 default
// sentinel compacts to a set_weight, which must say weight 1 explicitly —
// a literal set_weight(0) is invalid and would poison the whole group
// commit.
func TestCompactRestoresDefaultWeight(t *testing.T) {
	for _, directed := range []bool{false, true} {
		base := Uniform(6, 8, directed, 3)
		e := base.Edges[0]
		hist := []Mutation{
			{Op: OpSetWeight, U: e.U, V: e.V, W: 7},
			{Op: OpRemoveEdge, U: e.U, V: e.V},
			{Op: OpAddEdge, U: e.U, V: e.V, W: 0}, // sentinel: weight 1
		}
		seq := base.Clone()
		if _, err := seq.ApplyAll(hist); err != nil {
			t.Fatalf("directed=%v: sequential apply failed: %v", directed, err)
		}
		coal := replayCompacted(t, "sentinel", base, hist)
		assertSameTopology(t, "sentinel", seq, coal)
		if w, ok := coal.FindEdge(e.U, e.V); !ok || w != 1 { //lint:allow floateq the restored default weight is exactly 1
			t.Fatalf("directed=%v: edge (%d,%d) = (%v,%v), want weight 1", directed, e.U, e.V, w, ok)
		}
	}
}

// decodeFuzzMutation maps 4 fuzz bytes onto one proposed mutation over a
// graph with n vertices (add_vertex kept rare so N stays bounded).
func decodeFuzzMutation(b []byte, n int) Mutation {
	u, v := int32(int(b[1])%n), int32(int(b[2])%n)
	var w float64
	switch b[3] % 4 {
	case 0:
		w = 0
	case 1:
		w = 1
	case 2:
		w = 2.5
	default:
		w = float64(b[3])/32 + 0.5
	}
	switch b[0] % 8 {
	case 0:
		return Mutation{Op: OpAddVertex}
	case 1, 2, 3:
		return Mutation{Op: OpAddEdge, U: u, V: v, W: w}
	case 4, 5:
		return Mutation{Op: OpRemoveEdge, U: u, V: v}
	default:
		if w == 0 { //lint:allow floateq zero is the add_edge sentinel; set_weight has none
			w = 1
		}
		return Mutation{Op: OpSetWeight, U: u, V: v, W: w}
	}
}

// FuzzCompactReplayEquivalence feeds arbitrary op programs through the
// coalescing oracle. The seed corpus covers the algebra's corners
// (add+remove cancel, remove+add, chained sets, the W == 0 sentinel).
func FuzzCompactReplayEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{1, 0, 1, 0, 4, 0, 1, 0})                         // add then remove: cancels
	f.Add(int64(2), []byte{4, 0, 1, 0, 1, 0, 1, 0})                         // remove then re-add: set_weight
	f.Add(int64(3), []byte{6, 0, 1, 2, 6, 0, 1, 3, 6, 0, 1, 1})             // chained sets keep last
	f.Add(int64(4), []byte{4, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 9, 3, 2}) // sentinel re-add + add_vertex
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		base := Uniform(5+rng.Intn(8), 8+rng.Intn(12), directed, seed)
		work := base.Clone()
		var hist []Mutation
		for i := 0; i+3 < len(program) && len(hist) < 128; i += 4 {
			if work.N > 96 {
				break
			}
			m := decodeFuzzMutation(program[i:i+4], work.N)
			if err := work.Apply(m); err != nil {
				continue
			}
			hist = append(hist, m)
		}
		if len(hist) == 0 {
			return
		}
		coal := replayCompacted(t, "fuzz", base, hist)
		assertSameTopology(t, "fuzz", work, coal)
	})
}
