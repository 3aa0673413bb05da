package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

// TestIngestGroupCommitCoalesces pins the tentpole win: K writers queued
// behind a held serializer commit as ONE group — one engine apply, every
// waiter acknowledged with the same committed version and the group's
// effective (post-coalescing) op count.
func TestIngestGroupCommitCoalesces(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(6, 6, 1, 1)
	n := int32(g.N)
	if _, err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}

	// Hold the per-graph serializer so the elected drainer blocks and the
	// whole round accumulates into one group.
	lk := s.mutLockFor("g")
	lk.Lock()

	const K = 8
	results := make(chan *MutateResult, K)
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		// K distinct diagonal chords, none a grid edge: individually valid.
		u := int32(i)
		go func() {
			res, err := s.MutateDurable(context.Background(), "g",
				[]repro.Mutation{{Op: repro.MutAddEdge, U: u, V: n - 1 - u, W: 1}},
				DurabilityApplied)
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}()
	}
	waitFor(t, "all batches queued", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == K })
	lk.Unlock()

	var version uint64
	for i := 0; i < K; i++ {
		select {
		case err := <-errs:
			t.Fatalf("batch failed: %v", err)
		case res := <-results:
			if i == 0 {
				version = res.Version
			}
			if res.Version != version {
				t.Fatalf("group members report different versions: %d vs %d", res.Version, version)
			}
			if res.CoalescedBatches != K {
				t.Fatalf("CoalescedBatches = %d, want %d", res.CoalescedBatches, K)
			}
			if res.Applied != K {
				t.Fatalf("Applied = %d, want %d (the group's merged op count)", res.Applied, K)
			}
			if res.QueueWaitMS <= 0 {
				t.Fatalf("QueueWaitMS = %v, want > 0 for a batch that waited on the serializer", res.QueueWaitMS)
			}
			if res.Queued {
				t.Fatal("applied-durability result marked Queued")
			}
		}
	}

	st := scrape(t, s)
	if st.get(`mfbc_ingest_enqueued_total`) != K || st.get(`mfbc_ingest_coalesced_total`) != K {
		t.Fatalf("enqueued/coalesced = %v/%v, want %v/%v", st.get(`mfbc_ingest_enqueued_total`), st.get(`mfbc_ingest_coalesced_total`), K, K)
	}
	if st.get(`mfbc_ingest_group_commits_total`) != 1 {
		t.Fatalf("IngestCommits = %v, want 1 (one group commit for the whole round)", st.get(`mfbc_ingest_group_commits_total`))
	}
	if st.get(`mfbc_mutations_total`) != 1 {
		t.Fatalf("Mutations = %v, want 1 engine apply for %v writers", st.get(`mfbc_mutations_total`), K)
	}
	if st.get(`mfbc_ingest_queue_depth`) != 0 {
		t.Fatalf("IngestQueueDepth = %v after drain, want 0", st.get(`mfbc_ingest_queue_depth`))
	}
	info, err := s.GraphInfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if wantM := 60 + K; info.M != wantM {
		t.Fatalf("final m = %d, want %d (every chord landed)", info.M, wantM)
	}
}

// TestIngestEnqueuedDurability: an enqueued-durability PATCH acks before
// the apply with the pre-commit version, and the commit still lands
// asynchronously.
func TestIngestEnqueuedDurability(t *testing.T) {
	s := New(Config{Workers: 1, IngestDurability: DurabilityEnqueued})
	if _, err := s.AddGraph("g", repro.GridGraph(5, 5, 1, 1)); err != nil {
		t.Fatal(err)
	}
	info, _ := s.GraphInfoFor("g")

	res, err := s.MutateDurable(context.Background(), "g",
		[]repro.Mutation{{Op: repro.MutAddEdge, U: 0, V: 24, W: 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Queued || res.QueueDepth != 1 {
		t.Fatalf("ack = %+v, want Queued at depth 1", res)
	}
	if res.Version != info.Version {
		t.Fatalf("enqueued ack version = %d, want the pre-commit %d", res.Version, info.Version)
	}
	waitFor(t, "async commit", func() bool { return metric(t, s, `mfbc_mutations_total`) == 1 })
	after, err := s.GraphInfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version == info.Version || after.M != info.M+1 {
		t.Fatalf("commit did not land: version %d→%d, m %d→%d", info.Version, after.Version, info.M, after.M)
	}

	// A per-request override flips one batch back to applied durability.
	res, err = s.MutateDurable(context.Background(), "g",
		[]repro.Mutation{{Op: repro.MutAddEdge, U: 1, V: 23, W: 1}}, DurabilityApplied)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queued || res.Version == after.Version {
		t.Fatalf("applied override still acked pre-commit: %+v", res)
	}

	if _, err := s.MutateDurable(context.Background(), "g", nil, ""); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := s.MutateDurable(context.Background(), "g",
		[]repro.Mutation{{Op: repro.MutAddVertex}}, "eventually"); err == nil {
		t.Fatal("unknown durability accepted")
	}
}

// TestIngestBackpressure: beyond IngestMaxDepth the server sheds load
// with ErrIngestBackpressure, and the HTTP layer maps it to 429 +
// Retry-After.
func TestIngestBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, IngestMaxDepth: 2, IngestDurability: DurabilityEnqueued})
	if _, err := s.AddGraph("g", repro.GridGraph(5, 5, 1, 1)); err != nil {
		t.Fatal(err)
	}
	lk := s.mutLockFor("g")
	lk.Lock()

	add := func(u, v int32) (*MutateResult, error) {
		return s.MutateDurable(context.Background(), "g",
			[]repro.Mutation{{Op: repro.MutAddEdge, U: u, V: v, W: 1}}, "")
	}
	if _, err := add(0, 24); err != nil {
		t.Fatal(err)
	}
	if _, err := add(1, 23); err != nil {
		t.Fatal(err)
	}
	if _, err := add(2, 22); !errors.Is(err, ErrIngestBackpressure) {
		t.Fatalf("over-depth mutate: %v, want ErrIngestBackpressure", err)
	}

	// The HTTP mapping: 429 with a Retry-After hint.
	mux := NewMux(s)
	req := httptest.NewRequest("PATCH", "/graphs/g",
		bytes.NewBufferString(`{"mutations":[{"op":"add_edge","u":3,"v":21,"w":1}]}`))
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, req)
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP status = %d, want 429; body %s", rw.Code, rw.Body.String())
	}
	if rw.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", rw.Header().Get("Retry-After"))
	}
	if metric(t, s, `mfbc_ingest_rejected_total`) != 2 {
		t.Fatalf("IngestRejected = %v, want 2", metric(t, s, `mfbc_ingest_rejected_total`))
	}

	lk.Unlock()
	waitFor(t, "backlog drained", func() bool {
		return metric(t, s, `mfbc_mutations_total`) >= 1 && metric(t, s, `mfbc_ingest_queue_depth`) == 0
	})
	// Capacity freed: the next batch is admitted.
	if _, err := add(4, 20); err != nil {
		t.Fatal(err)
	}
}

// TestIngestEnqueuedHTTPStatus: an enqueued-durability PATCH answers 202
// with queued=true, not 200.
func TestIngestEnqueuedHTTPStatus(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.AddGraph("g", repro.GridGraph(5, 5, 1, 1)); err != nil {
		t.Fatal(err)
	}
	mux := NewMux(s)
	req := httptest.NewRequest("PATCH", "/graphs/g",
		bytes.NewBufferString(`{"mutations":[{"op":"add_edge","u":0,"v":24,"w":1}],"durability":"enqueued"}`))
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, req)
	if rw.Code != http.StatusAccepted {
		t.Fatalf("HTTP status = %d, want 202; body %s", rw.Code, rw.Body.String())
	}
	if !bytes.Contains(rw.Body.Bytes(), []byte(`"queued":true`)) {
		t.Fatalf("202 body missing queued flag: %s", rw.Body.String())
	}
}

// TestIngestInvalidBatchRejectedIndividually: group commit preserves
// sequential-apply error semantics — an invalid batch inside a group gets
// its own error while its neighbors commit.
func TestIngestInvalidBatchRejectedIndividually(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(6, 6, 1, 1)
	n := int32(g.N)
	if _, err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	lk := s.mutLockFor("g")
	lk.Lock()

	type out struct {
		res *MutateResult
		err error
	}
	outs := make([]chan out, 3)
	batches := [][]repro.Mutation{
		{{Op: repro.MutAddEdge, U: 0, V: n - 1, W: 1}},
		{{Op: repro.MutAddEdge, U: 0, V: n - 1, W: 1}}, // duplicate of batch 0: invalid vs the group's shadow
		{{Op: repro.MutAddEdge, U: 1, V: n - 2, W: 1}},
	}
	for i, muts := range batches {
		outs[i] = make(chan out, 1)
		ch, b := outs[i], muts
		go func() {
			res, err := s.MutateDurable(context.Background(), "g", b, DurabilityApplied)
			ch <- out{res, err}
		}()
		// Arrival order matters to the assertion; queue them one by one.
		want := i + 1
		waitFor(t, "batch queued", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == float64(want) })
	}
	lk.Unlock()

	if o := <-outs[0]; o.err != nil {
		t.Fatalf("batch 0: %v, want success", o.err)
	}
	if o := <-outs[1]; o.err == nil {
		t.Fatal("duplicate batch 1 committed, want its own validation error")
	}
	o2 := <-outs[2]
	if o2.err != nil {
		t.Fatalf("batch 2: %v, want success", o2.err)
	}
	if o2.res.CoalescedBatches != 2 {
		t.Fatalf("batch 2 CoalescedBatches = %d, want 2 (the invalid batch dropped out)", o2.res.CoalescedBatches)
	}
	st := scrape(t, s)
	if st.get(`mfbc_ingest_batch_errors_total`) != 1 {
		t.Fatalf("IngestBatchErrors = %v, want 1", st.get(`mfbc_ingest_batch_errors_total`))
	}
	info, _ := s.GraphInfoFor("g")
	if info.M != 62 {
		t.Fatalf("final m = %d, want 62 (both valid chords, duplicate skipped)", info.M)
	}
}

// TestIngestReportsEffectiveBatch: the PATCH response reports the
// post-coalescing op count, not the caller's raw batch size — two
// redundant reweights of one edge commit as a single effective op.
func TestIngestReportsEffectiveBatch(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(5, 5, 1, 1)
	e := g.Edges[0]
	if _, err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	res, err := s.MutateDurable(context.Background(), "g", []repro.Mutation{
		{Op: repro.MutSetWeight, U: e.U, V: e.V, W: 3},
		{Op: repro.MutSetWeight, U: e.U, V: e.V, W: 5},
	}, DurabilityApplied)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("Applied = %d, want 1 (chained sets coalesce to the last)", res.Applied)
	}
	if res.CoalescedBatches != 1 {
		t.Fatalf("CoalescedBatches = %d, want 1", res.CoalescedBatches)
	}
	if w, ok := mustGraph(t, s, "g").FindEdge(e.U, e.V); !ok || w != 5 { //lint:allow floateq exact literal survives the apply
		t.Fatalf("edge weight = (%v,%v), want 5", w, ok)
	}
}

func mustGraph(t *testing.T, s *Server, name string) *repro.Graph {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	ge, ok := s.graphs[name]
	if !ok {
		t.Fatalf("graph %q not registered", name)
	}
	return ge.g
}

// TestGroupCommitDifferential is the acceptance differential: a seeded
// schedule of mutation rounds, each round forced into one group commit,
// must match a second server fed the same batches one at a time (every
// group there is one batch) — scores equal at 1e-9 on every round
// boundary, and equal to a from-scratch Compute at the end.
func TestGroupCommitDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		base := repro.GridGraph(6, 6, 3, seed)
		grouped := New(Config{Workers: 1})
		serial := New(Config{Workers: 1})
		if _, err := grouped.AddGraph("g", base.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := serial.AddGraph("g", base.Clone()); err != nil {
			t.Fatal(err)
		}

		// shadow tracks the graph state batches are generated against, so
		// every batch is valid when applied in arrival order.
		shadow := base.Clone()
		for round := 0; round < 4; round++ {
			nb := 2 + rng.Intn(3)
			batches := make([][]repro.Mutation, nb)
			for b := range batches {
				for op := 0; op < 1+rng.Intn(2); op++ {
					var m repro.Mutation
					switch rng.Intn(3) {
					case 0: // reweight an existing edge
						e := shadow.Edges[rng.Intn(len(shadow.Edges))]
						m = repro.Mutation{Op: repro.MutSetWeight, U: e.U, V: e.V, W: float64(1 + rng.Intn(9))}
					case 1: // add a random non-edge
						u, v := int32(rng.Intn(shadow.N)), int32(rng.Intn(shadow.N))
						m = repro.Mutation{Op: repro.MutAddEdge, U: u, V: v, W: float64(1 + rng.Intn(4))}
					default: // remove an existing edge
						e := shadow.Edges[rng.Intn(len(shadow.Edges))]
						m = repro.Mutation{Op: repro.MutRemoveEdge, U: e.U, V: e.V}
					}
					if err := shadow.Apply(m); err != nil {
						continue // invalid proposal (self-loop, duplicate); skip
					}
					batches[b] = append(batches[b], m)
				}
				if len(batches[b]) == 0 {
					e := shadow.Edges[rng.Intn(len(shadow.Edges))]
					m := repro.Mutation{Op: repro.MutSetWeight, U: e.U, V: e.V, W: float64(2 + rng.Intn(5))}
					if err := shadow.Apply(m); err != nil {
						t.Fatal(err)
					}
					batches[b] = []repro.Mutation{m}
				}
			}

			// Oracle: one engine apply per batch, in order.
			for _, b := range batches {
				res, err := serial.MutateCtx(context.Background(), "g", b)
				if err != nil {
					t.Fatalf("seed %d round %d: serial apply: %v", seed, round, err)
				}
				if res.CoalescedBatches != 1 {
					t.Fatalf("seed %d round %d: oracle batch rode a group of %d", seed, round, res.CoalescedBatches)
				}
			}
			// Under test: hold the serializer so the round lands as ONE
			// group commit, in the same arrival order.
			lk := grouped.mutLockFor("g")
			lk.Lock()
			errCh := make(chan error, nb)
			for i, b := range batches {
				muts := b
				go func() {
					_, err := grouped.MutateDurable(context.Background(), "g", muts, DurabilityApplied)
					errCh <- err
				}()
				want := i + 1
				waitFor(t, "round queued in order", func() bool { return metric(t, grouped, `mfbc_ingest_queue_depth`) == float64(want) })
			}
			lk.Unlock()
			for range batches {
				if err := <-errCh; err != nil {
					t.Fatalf("seed %d round %d: group commit: %v", seed, round, err)
				}
			}

			qa, err := grouped.Query(QueryRequest{Graph: "g", IncludeScores: true})
			if err != nil {
				t.Fatal(err)
			}
			qs, err := serial.Query(QueryRequest{Graph: "g", IncludeScores: true})
			if err != nil {
				t.Fatal(err)
			}
			if !scoresAlmostEqual(qa.Scores, qs.Scores) {
				t.Fatalf("seed %d round %d: group-committed vs batch-by-batch scores diverge", seed, round)
			}
		}

		// Final cross-check against a from-scratch compute on the shadow.
		want, err := repro.Compute(shadow, repro.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		qa, err := grouped.Query(QueryRequest{Graph: "g", IncludeScores: true})
		if err != nil {
			t.Fatal(err)
		}
		if !scoresAlmostEqual(qa.Scores, want.BC) {
			t.Fatalf("seed %d: final coalesced scores diverge from from-scratch Compute", seed)
		}
	}
}

// TestIngestStatsReadback: the exposition surfaces the ingest counters an
// operator reads the write path from.
func TestIngestStatsReadback(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.AddGraph("g", repro.GridGraph(4, 4, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MutateDurable(context.Background(), "g",
		[]repro.Mutation{{Op: repro.MutAddEdge, U: 0, V: 15, W: 1}}, DurabilityApplied); err != nil {
		t.Fatal(err)
	}
	st := scrape(t, s)
	if st.get(`mfbc_ingest_enqueued_total`) != 1 || st.get(`mfbc_ingest_group_commits_total`) != 1 || st.get(`mfbc_ingest_coalesced_total`) != 1 {
		t.Fatalf("ingest counters = %+v, want 1/1/1", st)
	}
	// The queue-depth gauge and both histograms are families there too.
	text := s.Registry().Text()
	for _, name := range []string{
		"mfbc_ingest_queue_depth", "mfbc_ingest_coalesced_total",
		"mfbc_ingest_group_commit_size", "mfbc_ingest_queue_wait_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("metrics exposition missing %s", name)
		}
	}
}

// TestAdmitRollsBackPartialBatch pins the single-shadow validation: a batch
// rejected part-way leaves nothing behind on the shadow, so a later batch
// that repeats its applied prefix is admitted, and a batch rejected at its
// first mutation costs no rebuild at all.
func TestAdmitRollsBackPartialBatch(t *testing.T) {
	g := repro.GridGraph(4, 4, 1, 1)
	pend := func(muts ...repro.Mutation) *ingestPending { return &ingestPending{Muts: muts} }
	add := func(u, v int32) repro.Mutation { return repro.Mutation{Op: repro.MutAddEdge, U: u, V: v, W: 1} }
	group := []*ingestPending{
		pend(add(0, 15)),
		pend(add(1, 14), add(0, 15)), // second op duplicates batch 0: rejected after applying (1,14)
		pend(add(1, 14)),             // valid only if batch 1 was rolled back
		pend(add(0, 15)),             // rejected at its first op
		pend(add(2, 13)),
	}
	valid, errs := admit(g, group)
	wantValid := []*ingestPending{group[0], group[2], group[4]}
	if len(valid) != len(wantValid) {
		t.Fatalf("admitted %d batches, want %d (errs %v)", len(valid), len(wantValid), errs)
	}
	for i, p := range wantValid {
		if valid[i] != p {
			t.Fatalf("valid[%d] is not the expected batch (errs %v)", i, errs)
		}
	}
	for i, wantErr := range []bool{false, true, false, true, false} {
		if (errs[i] != nil) != wantErr {
			t.Fatalf("errs[%d] = %v, want error: %v", i, errs[i], wantErr)
		}
	}
	if g.M() != 24 {
		t.Fatalf("admit mutated the committed graph: m = %d, want 24", g.M())
	}
}

// TestLeaderCommitsUnderItsRequestSpan: the group an applied-durability
// writer leads commits under that writer's http.mutate root, its
// followers' batches riding the same server.mutate span; only groups
// drained in the background — backlog handed off after the leader's own
// batch resolved, and enqueued-durability acks — root a detached
// ingest.commit trace.
func TestLeaderCommitsUnderItsRequestSpan(t *testing.T) {
	tr := obs.NewTracer(32)
	eng := &stallEngine{entered: make(chan struct{}), release: make(chan struct{})}
	s := New(Config{Workers: 1, Tracer: tr,
		NewDynamic: func(_ string, g *repro.Graph, opt repro.DynamicOptions) (DynEngine, error) {
			inner, err := repro.NewDynamicBC(g, opt)
			eng.DynEngine = inner
			return eng, err
		}})
	g := repro.GridGraph(6, 6, 1, 1)
	n := int32(g.N)
	if _, err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	mux := NewMux(s)
	patch := func(u int32, durability string) chan int {
		body, err := json.Marshal(MutateRequest{
			Mutations:  []repro.Mutation{{Op: repro.MutAddEdge, U: u, V: n - 1 - u, W: 1}},
			Durability: durability,
		})
		if err != nil {
			t.Fatal(err)
		}
		code := make(chan int, 1)
		go func() {
			rw := httptest.NewRecorder()
			mux.ServeHTTP(rw, httptest.NewRequest("PATCH", "/graphs/g", bytes.NewReader(body)))
			code <- rw.Code
		}()
		return code
	}
	wantCode := func(what string, code chan int, want int) {
		t.Helper()
		if got := <-code; got != want {
			t.Fatalf("%s: status %d, want %d", what, got, want)
		}
	}

	// Three applied writers pile up behind the held serializer; the first
	// won drain duty and leads the group of three into the engine, where
	// it parks.
	const K = 3
	lk := s.mutLockFor("g")
	lk.Lock()
	var group [K]chan int
	for i := range group {
		group[i] = patch(int32(i), "")
		want := i + 1
		waitFor(t, "writer queued", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == float64(want) })
	}
	lk.Unlock()
	<-eng.entered
	// A fourth arrives during that commit: backlog the leader hands off.
	late := patch(K, "")
	waitFor(t, "late writer queued", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == 1 })
	close(eng.release)
	for i, code := range group {
		wantCode(fmt.Sprintf("group writer %d", i), code, http.StatusOK)
	}
	wantCode("late writer", late, http.StatusOK)
	// And an enqueued-durability ack, drained in the background as well.
	wantCode("enqueued writer", patch(K+1, DurabilityEnqueued), http.StatusAccepted)
	waitFor(t, "background commits", func() bool { return metric(t, s, `mfbc_mutations_total`) == 3 })

	// Classify every finished trace by its root and the batch count on the
	// server.mutate span directly beneath it (0 = no commit in the trace).
	var underRequest, detached []int
	waitFor(t, "all traces finished", func() bool {
		underRequest, detached = nil, nil
		for _, trc := range tr.Traces() {
			root := trc[len(trc)-1]
			batches := 0
			for _, rec := range trc {
				if rec.Name == "server.mutate" {
					if rec.Parent != root.Span {
						t.Fatalf("server.mutate is not a direct child of its %s root: %v", root.Name, names(trc))
					}
					batches = rec.Attrs["batches"].(int)
				}
			}
			switch root.Name {
			case "http.mutate":
				underRequest = append(underRequest, batches)
			case "ingest.commit":
				detached = append(detached, batches)
			}
		}
		return len(underRequest) == K+2 && len(detached) == 2
	})
	sort.Ints(underRequest)
	if want := []int{0, 0, 0, 0, K}; !slices.Equal(underRequest, want) {
		t.Fatalf("batches committed under the %d http.mutate roots = %v, want %v: the leader's group of %d and nothing else",
			K+2, underRequest, want, K)
	}
	if want := []int{1, 1}; !slices.Equal(detached, want) {
		t.Fatalf("batches committed under detached ingest.commit roots = %v, want %v (handed-off backlog, enqueued ack)", detached, want)
	}
}

// panicEngine is a DynEngine whose applies panic, as a bug in the engine
// or a poisoned transport would.
type panicEngine struct{ DynEngine }

func (panicEngine) ApplyCtx(context.Context, []repro.Mutation) (repro.ApplyReport, error) {
	panic("engine exploded")
}

// TestCommitPanicContained: a panic inside a group commit fails that
// group's batches with a 5xx and nothing else — the serializer and drain
// duty are released, the suspect engine is detached so the next PATCH
// rebuilds one and succeeds, mfbc_panics_total counts it, and no goroutine
// is left behind.
func TestCommitPanicContained(t *testing.T) {
	before := runtime.NumGoroutine()
	builds := 0
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		NewDynamic: func(_ string, g *repro.Graph, opt repro.DynamicOptions) (DynEngine, error) {
			builds++
			inner, err := repro.NewDynamicBC(g, opt)
			if builds == 1 {
				return panicEngine{inner}, err
			}
			return inner, err
		}})
	if _, err := s.AddGraph("g", repro.GridGraph(5, 5, 1, 1)); err != nil {
		t.Fatal(err)
	}
	mux := NewMux(s)
	patch := func(body string) *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		mux.ServeHTTP(rw, httptest.NewRequest("PATCH", "/graphs/g", strings.NewReader(body)))
		return rw
	}

	// The panicking commit carries a group of two: the leader and a
	// follower both get the contained error.
	lk := s.mutLockFor("g")
	lk.Lock()
	follower := make(chan error, 1)
	lead := make(chan *httptest.ResponseRecorder, 1)
	go func() { lead <- patch(`{"mutations":[{"op":"add_edge","u":0,"v":24,"w":1}]}`) }()
	waitFor(t, "leader queued", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == 1 })
	go func() {
		_, err := s.MutateCtx(context.Background(), "g", []repro.Mutation{{Op: repro.MutAddEdge, U: 1, V: 23, W: 1}})
		follower <- err
	}()
	waitFor(t, "follower queued", func() bool { return metric(t, s, `mfbc_ingest_queue_depth`) == 2 })
	lk.Unlock()
	if rw := <-lead; rw.Code != http.StatusInternalServerError {
		t.Fatalf("PATCH into a panicking commit: status %d, want 500; body %s", rw.Code, rw.Body.String())
	}
	if err := <-follower; !errors.Is(err, ErrInternal) {
		t.Fatalf("follower of a panicking commit: %v, want ErrInternal", err)
	}

	st := scrape(t, s)
	if st.get(`mfbc_mutations_total`) != 0 || st.get(`mfbc_ingest_batch_errors_total`) != 2 || st.get(`mfbc_ingest_queue_depth`) != 0 {
		t.Fatalf("after the contained panic: %+v", st)
	}
	if !strings.Contains(s.Registry().Text(), `mfbc_panics_total{site="ingest.commit"} 1`) {
		t.Fatalf("mfbc_panics_total{site=\"ingest.commit\"} is not 1:\n%s", s.Registry().Text())
	}
	s.mu.Lock()
	attached := s.graphs["g"].dyn != nil
	s.mu.Unlock()
	if attached {
		t.Fatal("the engine that panicked is still attached")
	}

	// Still serving: the next PATCH takes the serializer and drain duty
	// the panic released, rebuilds the engine, and commits.
	if rw := patch(`{"mutations":[{"op":"add_edge","u":0,"v":24,"w":1}]}`); rw.Code != http.StatusOK {
		t.Fatalf("PATCH after the contained panic: status %d, want 200; body %s", rw.Code, rw.Body.String())
	}
	if builds != 2 {
		t.Fatalf("engines built = %d, want 2 (the detached one was rebuilt)", builds)
	}
	waitFor(t, "no leaked goroutine", func() bool { return runtime.NumGoroutine() <= before })
}
