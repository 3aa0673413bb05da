package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// Race choreography for the async ingestion pipeline, extending the PR 7
// race_test.go pattern: concurrent PATCH + Evict + query during in-flight
// group commits must never surface a torn (version, scores) pair and must
// never resurrect an evicted graph's queue. Run with -race.

// TestIngestEvictFailsQueuedBatches: evicting a graph fails every queued
// batch with ErrGraphNotFound, and a re-registered graph under the same
// name starts with a fresh, empty queue — never the evicted one.
func TestIngestEvictFailsQueuedBatches(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(6, 6, 1, 1)
	n := int32(g.N)
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}

	// Queue a round behind the held serializer, then evict before any of
	// it can commit.
	lk := s.mutLockFor("g")
	lk.Lock()
	const K = 4
	errCh := make(chan error, K)
	for i := 0; i < K; i++ {
		u := int32(i)
		go func() {
			_, err := s.MutateDurable(context.Background(), "g",
				[]repro.Mutation{{Op: repro.MutAddEdge, U: u, V: n - 1 - u, W: 1}},
				DurabilityApplied)
			errCh <- err
		}()
	}
	waitFor(t, "round queued", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == K })
	if err := s.Evict("g"); err != nil {
		t.Fatal(err)
	}
	lk.Unlock()

	for i := 0; i < K; i++ {
		if err := <-errCh; !errors.Is(err, ErrGraphNotFound) {
			t.Fatalf("queued batch after evict: %v, want ErrGraphNotFound", err)
		}
	}
	st := scrape(t, s)
	if st.get(`mfbc_ingest_queue_depth`) != 0 {
		t.Fatalf("IngestQueueDepth = %v after evict, want 0", st.get(`mfbc_ingest_queue_depth`))
	}
	if st.get(`mfbc_ingest_batch_errors_total`) != K {
		t.Fatalf("IngestBatchErrors = %v, want %v", st.get(`mfbc_ingest_batch_errors_total`), K)
	}
	if st.get(`mfbc_mutations_total`) != 0 {
		t.Fatalf("Mutations = %v, want 0 (nothing committed)", st.get(`mfbc_mutations_total`))
	}

	// Re-register: the name gets a fresh queue; the old backlog stays dead
	// and a new batch commits normally.
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	res, err := s.MutateDurable(context.Background(), "g",
		[]repro.Mutation{{Op: repro.MutAddEdge, U: 0, V: n - 1, W: 1}}, DurabilityApplied)
	if err != nil {
		t.Fatalf("mutate after re-register: %v", err)
	}
	if res.CoalescedBatches != 1 {
		t.Fatalf("CoalescedBatches = %d, want 1 (no resurrected backlog)", res.CoalescedBatches)
	}
	info, _ := s.GraphInfoFor("g")
	if info.M != g.M()+1 {
		t.Fatalf("m = %d, want %d: exactly the post-re-register batch, none of the evicted ones", info.M, g.M()+1)
	}
}

// stallEngine wraps the real dynamic engine and parks inside ApplyCtx
// until released, holding a group commit in flight on demand.
type stallEngine struct {
	DynEngine
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (e *stallEngine) ApplyCtx(ctx context.Context, batch []repro.Mutation) (repro.ApplyReport, error) {
	e.once.Do(func() { close(e.entered) })
	<-e.release
	return e.DynEngine.ApplyCtx(ctx, batch)
}

// TestIngestEvictDuringCommit: a graph evicted while its group commit is
// inside the engine must fail that commit's waiters with ErrGraphConflict
// (the install-race check), not install onto the re-registered graph — and
// a PATCH to the re-registered graph, which has a queue and a drainer of
// its own, still waits its turn on the per-name serializer.
func TestIngestEvictDuringCommit(t *testing.T) {
	eng := &stallEngine{entered: make(chan struct{}), release: make(chan struct{})}
	var inflight atomic.Int32
	var overlapped atomic.Bool
	s := New(Config{
		Workers: 1,
		NewDynamic: func(_ string, g *repro.Graph, opt repro.DynamicOptions) (DynEngine, error) {
			inner, err := repro.NewDynamicBC(g, opt)
			if err != nil {
				return nil, err
			}
			eng.DynEngine = inner
			return soloEngine{eng, &inflight, &overlapped}, nil
		},
	})
	g := repro.GridGraph(5, 5, 1, 1)
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		_, err := s.MutateDurable(context.Background(), "g",
			[]repro.Mutation{{Op: repro.MutAddEdge, U: 0, V: 24, W: 1}}, DurabilityApplied)
		errCh <- err
	}()
	<-eng.entered // the group commit is now inside the engine

	if err := s.Evict("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	nextCh := make(chan error, 1)
	go func() {
		_, err := s.MutateDurable(context.Background(), "g",
			[]repro.Mutation{{Op: repro.MutAddEdge, U: 1, V: 23, W: 1}}, DurabilityApplied)
		nextCh <- err
	}()
	waitFor(t, "next batch queued on the fresh queue", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == 1 })
	close(eng.release)

	if err := <-errCh; !errors.Is(err, ErrGraphConflict) {
		t.Fatalf("commit raced by evict: %v, want ErrGraphConflict", err)
	}
	if err := <-nextCh; err != nil {
		t.Fatalf("batch for the re-registered graph: %v", err)
	}
	// The re-registered graph carries its own batch and nothing of the
	// orphaned commit.
	info, _ := s.GraphInfoFor("g")
	if info.M != g.M()+1 {
		t.Fatalf("m = %d, want %d (orphaned commit must not install)", info.M, g.M()+1)
	}
	if metric(t, s, `mfbc_ingest_batch_errors_total`) != 1 {
		t.Fatalf("IngestBatchErrors = %v, want 1", metric(t, s, `mfbc_ingest_batch_errors_total`))
	}
	if overlapped.Load() {
		t.Fatal("the re-registered graph's apply ran beside the evicted graph's")
	}
}

func hashScores(scores []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range scores {
		bits := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestIngestNoTornSnapshots: readers concurrent with group commits must
// observe a consistent (version, scores) pair — one scores vector per
// version, never a mix of old and new.
func TestIngestNoTornSnapshots(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(8, 8, 3, 7)
	if _, err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seen := make(map[uint64]uint64) // version → scores hash
	record := func(version uint64, scores []float64) {
		h := hashScores(scores)
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[version]; ok && prev != h {
			panic(fmt.Sprintf("torn snapshot: version %d served two different score vectors", version))
		}
		seen[version] = h
	}

	var wg sync.WaitGroup
	const writers, readers, iters = 3, 4, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := g.Edges[(w*iters+i)%len(g.Edges)]
				_, err := s.MutateDurable(context.Background(), "g",
					[]repro.Mutation{{Op: repro.MutSetWeight, U: e.U, V: e.V, W: float64(1 + (w+i)%7)}},
					DurabilityApplied)
				if err != nil {
					panic(fmt.Sprintf("writer: %v", err))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters*2; i++ {
				res, err := s.Query(QueryRequest{Graph: "g", IncludeScores: true})
				if err != nil {
					panic(fmt.Sprintf("reader: %v", err))
				}
				record(res.Version, res.Scores)
			}
		}()
	}
	wg.Wait()
}

// TestIngestEvictRegisterStorm is the PR 7 chaos storm with the ingest
// queue enabled: concurrent queued PATCHes, evictions, re-registrations,
// and reads. Every outcome must be a sane one; the value is the -race
// detector plus the queue-teardown invariants under churn.
func TestIngestEvictRegisterStorm(t *testing.T) {
	s := New(Config{Workers: 1, IngestMaxDepth: 8})
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
				case 0: // queued mutate: reweight a known grid edge
					u := int32((w*iters + i) % 35)
					durability := DurabilityApplied
					if i%3 == 0 {
						durability = DurabilityEnqueued
					}
					_, err := s.MutateDurable(context.Background(), "g", []repro.Mutation{
						{Op: repro.MutSetWeight, U: u, V: u + 1, W: float64(1 + i%5)},
					}, durability)
					switch {
					case err == nil:
					case errors.Is(err, ErrGraphNotFound), errors.Is(err, ErrGraphConflict),
						errors.Is(err, ErrIngestBackpressure):
					case u%6 == 5:
						// (u, u+1) spans a grid row boundary: a legitimate
						// no-such-edge validation error.
					default:
						panic(fmt.Sprintf("mutate: %v", err))
					}
				case 1: // evict (closes + fails the queue)
					if err := s.Evict("g"); err != nil && !errors.Is(err, ErrGraphNotFound) {
						panic(fmt.Sprintf("evict: %v", err))
					}
				case 2: // re-register (fresh queue)
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

	// Quiesce: drainers for live queues finish their backlogs.
	waitFor(t, "queues drained", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == 0 })
}
