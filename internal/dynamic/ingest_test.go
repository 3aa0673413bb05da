package dynamic

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

func batch(n int) []graph.Mutation {
	muts := make([]graph.Mutation, n)
	for i := range muts {
		muts[i] = graph.Mutation{Op: graph.OpAddVertex}
	}
	return muts
}

func TestQueueDrainHandoff(t *testing.T) {
	q := NewQueue[int](0)
	now := time.Now()

	p1, depth, start, err := q.Enqueue(batch(1), now)
	if err != nil || depth != 1 || !start {
		t.Fatalf("first enqueue: depth=%d start=%v err=%v, want 1 true nil", depth, start, err)
	}
	_, depth, start, err = q.Enqueue(batch(2), now)
	if err != nil || depth != 2 || start {
		t.Fatalf("second enqueue: depth=%d start=%v err=%v, want 2 false nil (drainer already elected)", depth, start, err)
	}

	group, ok := q.Drain()
	if !ok || len(group) != 2 || group[0] != p1 {
		t.Fatalf("drain: ok=%v len=%d, want whole backlog in order", ok, len(group))
	}

	// The drainer took everything and still holds duty: enqueues while it
	// works land at depth 1 and must not elect a second drainer.
	_, depth, start, _ = q.Enqueue(batch(1), now)
	if depth != 1 || start {
		t.Fatalf("enqueue while drainer active: depth=%d start=%v, want 1 false", depth, start)
	}
	if group, ok = q.Drain(); !ok || len(group) != 1 {
		t.Fatalf("second drain: ok=%v len=%d, want the late batch", ok, len(group))
	}

	// Empty drain releases duty; the next enqueue elects afresh.
	if _, ok = q.Drain(); ok {
		t.Fatal("drain on empty queue reported work")
	}
	if _, _, start, _ = q.Enqueue(batch(1), now); !start {
		t.Fatal("enqueue after duty release did not elect a drainer")
	}

	// Release gives duty up only over an empty queue: with a backlog the
	// holder keeps it (to hand on), and nobody else is elected meanwhile.
	if q.Release() {
		t.Fatal("release with a batch pending gave up drain duty")
	}
	if _, _, start, _ = q.Enqueue(batch(1), now); start {
		t.Fatal("enqueue after a refused release elected a second drainer")
	}
	if group, ok = q.Drain(); !ok || len(group) != 2 {
		t.Fatalf("drain after refused release: ok=%v len=%d, want both batches", ok, len(group))
	}
	if !q.Release() {
		t.Fatal("release over an empty queue kept drain duty")
	}
	if _, _, start, _ = q.Enqueue(batch(1), now); !start {
		t.Fatal("enqueue after release did not elect a drainer")
	}
}

func TestQueueBackpressureAndClose(t *testing.T) {
	q := NewQueue[int](2)
	now := time.Now()
	q.Enqueue(batch(1), now)
	q.Enqueue(batch(1), now)
	if _, depth, _, err := q.Enqueue(batch(1), now); !errors.Is(err, ErrQueueFull) || depth != 2 {
		t.Fatalf("over-depth enqueue: depth=%d err=%v, want 2 ErrQueueFull", depth, err)
	}

	orphans := q.Close()
	if len(orphans) != 2 {
		t.Fatalf("close returned %d orphans, want 2", len(orphans))
	}
	if _, _, _, err := q.Enqueue(batch(1), now); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("enqueue after close: %v, want ErrQueueClosed", err)
	}
	if _, ok := q.Drain(); ok {
		t.Fatal("drain after close reported work")
	}
	if len(q.Close()) != 0 {
		t.Fatal("second close returned orphans")
	}
}

func TestPendingWaitAndResolve(t *testing.T) {
	q := NewQueue[int](0)
	p, _, _, err := q.Enqueue(batch(1), time.Now())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, werr := p.Wait(context.Background())
		if res != 42 || werr != nil {
			t.Errorf("Wait = (%d, %v), want (42, nil)", res, werr)
		}
	}()
	p.Resolve(42, nil)
	wg.Wait()

	// A canceled wait abandons only the waiter; the resolution sticks.
	p2, _, _, _ := q.Enqueue(batch(1), time.Now())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, werr := p2.Wait(ctx); !errors.Is(werr, context.Canceled) {
		t.Fatalf("canceled Wait = %v, want context.Canceled", werr)
	}
	wantErr := errors.New("boom")
	p2.Resolve(0, wantErr)
	if _, werr := p2.Wait(context.Background()); !errors.Is(werr, wantErr) {
		t.Fatalf("post-resolve Wait = %v, want boom", werr)
	}
}

func TestCoalesceAlgebra(t *testing.T) {
	cases := []struct {
		name string
		in   []graph.Mutation
		want []graph.Mutation
	}{
		{
			name: "add then remove cancels",
			in: []graph.Mutation{
				{Op: graph.OpAddEdge, U: 0, V: 1, W: 2},
				{Op: graph.OpRemoveEdge, U: 0, V: 1},
			},
			want: nil,
		},
		{
			name: "chained sets keep last",
			in: []graph.Mutation{
				{Op: graph.OpSetWeight, U: 0, V: 1, W: 2},
				{Op: graph.OpSetWeight, U: 0, V: 1, W: 3},
				{Op: graph.OpSetWeight, U: 0, V: 1, W: 5},
			},
			want: []graph.Mutation{{Op: graph.OpSetWeight, U: 0, V: 1, W: 5}},
		},
		{
			name: "remove then add becomes set_weight",
			in: []graph.Mutation{
				{Op: graph.OpRemoveEdge, U: 0, V: 1},
				{Op: graph.OpAddEdge, U: 0, V: 1, W: 4},
			},
			want: []graph.Mutation{{Op: graph.OpSetWeight, U: 0, V: 1, W: 4}},
		},
		{
			name: "sentinel re-add restores weight 1",
			in: []graph.Mutation{
				{Op: graph.OpRemoveEdge, U: 0, V: 1},
				{Op: graph.OpAddEdge, U: 0, V: 1, W: 0},
			},
			want: []graph.Mutation{{Op: graph.OpSetWeight, U: 0, V: 1, W: 1}},
		},
	}
	for _, tc := range cases {
		got := Coalesce(false, tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] { //lint:allow floateq exact literals round-trip through compaction
				t.Fatalf("%s: op %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}
