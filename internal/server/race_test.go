package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// gridWithNonEdges builds a weighted grid graph and returns it with two
// vertex pairs that are guaranteed not to be grid edges, so concurrent
// add_edge batches are always individually valid.
func gridWithNonEdges(seed int64) (*repro.Graph, [2]int32, [2]int32) {
	g := repro.GridGraph(12, 12, 5, seed)
	n := int32(g.N)
	return g, [2]int32{0, n - 1}, [2]int32{1, n - 2}
}

// soloEngine wraps the real dynamic engine and flags any apply that starts
// while another one, on any engine sharing the counters, is in flight.
type soloEngine struct {
	DynEngine
	inflight   *atomic.Int32
	overlapped *atomic.Bool
}

func (e soloEngine) ApplyCtx(ctx context.Context, batch []repro.Mutation) (repro.ApplyReport, error) {
	if e.inflight.Add(1) > 1 {
		e.overlapped.Store(true)
	}
	defer e.inflight.Add(-1)
	return e.DynEngine.ApplyCtx(ctx, batch)
}

// TestEvictMutateRaceSerialization pins the Evict/Mutate contract of the
// write path: a batch still queued when its graph is evicted dies with the
// graph (ErrGraphNotFound) and is never resurrected onto a graph
// re-registered under the name, while the per-name serializer outlives the
// eviction, so the stranded batch's leader waking up and the re-registered
// graph's first batch never apply at once. (Were Evict to delete
// mutLocks[name], the second Mutate would mint a fresh mutex and run
// beside whatever still held the old one.)
func TestEvictMutateRaceSerialization(t *testing.T) {
	for round := 0; round < 3; round++ {
		var inflight atomic.Int32
		var overlapped atomic.Bool
		s := New(Config{Workers: 1, NewDynamic: func(_ string, g *repro.Graph, opt repro.DynamicOptions) (DynEngine, error) {
			inner, err := repro.NewDynamicBC(g, opt)
			return soloEngine{inner, &inflight, &overlapped}, err
		}})
		g, pairA, pairB := gridWithNonEdges(int64(round) + 1)
		base := g.M()
		if _, err := s.AddGraph("g", g); err != nil {
			t.Fatal(err)
		}

		// Hold the live per-graph serializer, exactly as an in-flight
		// group commit would while its engine computes.
		lk := s.mutLockFor("g")
		lk.Lock()

		errA := make(chan error, 1)
		go func() {
			_, err := s.Mutate("g", []repro.Mutation{
				{Op: repro.MutAddEdge, U: pairA[0], V: pairA[1], W: 1},
			})
			errA <- err
		}()
		waitFor(t, "A queued behind the serializer", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == 1 })

		// Evict and immediately re-register the name: A's batch is stranded
		// in the evicted graph's queue. The re-registered graph is rebuilt
		// from the same seed.
		if err := s.Evict("g"); err != nil {
			t.Fatal(err)
		}
		g2, _, _ := gridWithNonEdges(int64(round) + 1)
		if _, err := s.AddGraph("g", g2); err != nil {
			t.Fatal(err)
		}

		errB := make(chan error, 1)
		go func() {
			_, err := s.Mutate("g", []repro.Mutation{
				{Op: repro.MutAddEdge, U: pairB[0], V: pairB[1], W: 1},
			})
			errB <- err
		}()
		// B lands in the fresh queue and leads it, behind the same
		// serializer A's leader is parked on.
		waitFor(t, "B queued behind the serializer", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == 1 })
		lk.Unlock()

		if err := <-errA; !errors.Is(err, ErrGraphNotFound) {
			t.Fatalf("round %d: stranded batch A: %v, want ErrGraphNotFound", round, err)
		}
		if err := <-errB; err != nil {
			t.Fatalf("round %d: batch B failed: %v", round, err)
		}
		info, err := s.GraphInfoFor("g")
		if err != nil {
			t.Fatal(err)
		}
		if info.M != base+1 {
			t.Fatalf("round %d: final graph has m=%d, want %d (B only; A died with the evicted graph)", round, info.M, base+1)
		}
		if _, ok := mustGraph(t, s, "g").FindEdge(pairA[0], pairA[1]); ok {
			t.Fatalf("round %d: evicted graph's batch A was resurrected onto the re-registered graph", round)
		}
		if overlapped.Load() {
			t.Fatalf("round %d: two applies for one name ran at once", round)
		}
	}
}

// TestEvictMutateRegisterStorm hammers one graph name with concurrent
// PATCH / DELETE / POST-re-register traffic. It asserts only that every
// outcome is a sane one (success, not-found, conflict, or a validation
// error from a duplicate edge) — the value of the test is the -race
// detector and the serialization invariant under chaos.
func TestEvictMutateRegisterStorm(t *testing.T) {
	s := New(Config{Workers: 1})
	mk := func(seed int64) *repro.Graph { return repro.GridGraph(6, 6, 3, seed) }
	if _, err := s.AddGraph("g", mk(1)); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0: // mutate: reweight a known grid edge
					u := int32((w*iters + i) % 35)
					_, err := s.Mutate("g", []repro.Mutation{
						{Op: repro.MutSetWeight, U: u, V: u + 1, W: float64(1 + i%5)},
					})
					if err != nil && !errors.Is(err, ErrGraphNotFound) && !errors.Is(err, ErrGraphConflict) {
						// Reweighting (u, u+1) can legitimately fail when u+1
						// starts a new grid row (no such edge) — but nothing else.
						if u%6 != 5 {
							panic(fmt.Sprintf("mutate: %v", err))
						}
					}
				case 1: // evict
					if err := s.Evict("g"); err != nil && !errors.Is(err, ErrGraphNotFound) {
						panic(fmt.Sprintf("evict: %v", err))
					}
				case 2: // re-register
					if _, err := s.AddGraph("g", mk(int64(i))); err != nil {
						panic(fmt.Sprintf("add: %v", err))
					}
				case 3: // read traffic
					_, err := s.Query(QueryRequest{Graph: "g", K: 3})
					if err != nil && !errors.Is(err, ErrGraphNotFound) {
						panic(fmt.Sprintf("query: %v", err))
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
