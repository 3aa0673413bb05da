package rankrun

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/graph"
	"repro/internal/machine/tcpnet"
)

// mesh brings up a p-rank loopback mesh with workers already looping in
// ServeWorker, and returns the coordinator's driver.
func mesh(t *testing.T, p int) (*Driver, *tcpnet.LocalMesh, *sync.WaitGroup) {
	t.Helper()
	lm, err := tcpnet.StartLocalMesh(p, tcpnet.Options{})
	if err != nil {
		t.Fatalf("loopback mesh: %v", err)
	}
	t.Cleanup(func() { lm.Close() })
	d, err := NewDriver(lm.Rank(0))
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, p)
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			workerErrs[r] = ServeWorker(lm.Rank(r))
		}(r)
	}
	t.Cleanup(func() {
		wg.Wait()
		for r, err := range workerErrs {
			if err != nil {
				t.Errorf("worker rank %d: %v", r, err)
			}
		}
	})
	return d, lm, &wg
}

// stream is a deterministic mutation workload touching every op kind.
func stream() [][]graph.Mutation {
	return [][]graph.Mutation{
		{{Op: graph.OpAddEdge, U: 0, V: 14, W: 2}},
		{{Op: graph.OpSetWeight, U: 0, V: 1, W: 3}, {Op: graph.OpAddEdge, U: 3, V: 17, W: 1}},
		{{Op: graph.OpRemoveEdge, U: 0, V: 14}, {Op: graph.OpAddVertex}},
		{{Op: graph.OpAddEdge, U: 2, V: 20, W: 4}},
	}
}

// TestReplicatedMatchesLocal drives the same mutation stream through a
// 4-rank replicated engine and a plain in-process engine (simulated
// machine) and requires bit-identical scores, versions, and strategy
// decisions on every apply — the acceptance bar for the TCP backend. The
// graph has more vertices than the default batch, so a full sweep runs
// more than one batch.
func TestReplicatedMatchesLocal(t *testing.T) {
	const p = 4
	d, _, _ := mesh(t, p)
	defer d.Shutdown()

	g := graph.Grid2D(12, 11, 8, 13)
	opt := repro.DynamicOptions{Procs: p, Workers: 1}

	eng, err := d.NewEngine("g", g, opt)
	if err != nil {
		t.Fatalf("replicated engine: %v", err)
	}
	ref, err := repro.NewDynamicBC(g, opt)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	for i, batch := range stream() {
		rep, err := eng.ApplyCtx(context.Background(), batch)
		if err != nil {
			t.Fatalf("apply %d (replicated): %v", i, err)
		}
		want, err := ref.Apply(batch)
		if err != nil {
			t.Fatalf("apply %d (reference): %v", i, err)
		}
		if rep.Strategy != want.Strategy || rep.Version != want.Version || rep.Affected != want.Affected {
			t.Fatalf("apply %d: decision diverged: got (%s v%d a%d), want (%s v%d a%d)",
				i, rep.Strategy, rep.Version, rep.Affected, want.Strategy, want.Version, want.Affected)
		}
	}
	got, want := eng.Scores(), ref.Scores()
	if got.Version != want.Version || len(got.BC) != len(want.BC) {
		t.Fatalf("snapshot shape: got v%d n=%d, want v%d n=%d", got.Version, len(got.BC), want.Version, len(want.BC))
	}
	for i := range got.BC {
		if got.BC[i] != want.BC[i] {
			t.Fatalf("score %d: tcpnet %v != sim %v", i, got.BC[i], want.BC[i])
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestShutdownThenCloseInAnyOrder is the deployment's teardown shape:
// every worker closes its transport the moment ServeWorker returns (as
// cmd/mfbc-rank does) and the coordinator closes after Shutdown. However
// the ranks' closes interleave, no worker may see a peer's close as a lost
// link. Before shutdown was ordered this failed on a 2-CPU host in roughly
// one mesh out of three (a fast worker closed while a slower one was still
// blocked waiting for the shutdown op).
func TestShutdownThenCloseInAnyOrder(t *testing.T) {
	const p = 4
	for round := 0; round < 20; round++ {
		lm, err := tcpnet.StartLocalMesh(p, tcpnet.Options{})
		if err != nil {
			t.Fatalf("loopback mesh: %v", err)
		}
		d, err := NewDriver(lm.Rank(0))
		if err != nil {
			t.Fatalf("driver: %v", err)
		}
		var wg sync.WaitGroup
		workerErrs := make([]error, p)
		for r := 1; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer lm.Rank(r).Close()
				workerErrs[r] = ServeWorker(lm.Rank(r))
			}(r)
		}
		if err := d.Shutdown(); err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		lm.Rank(0).Close()
		wg.Wait()
		for r, err := range workerErrs {
			if err != nil {
				t.Fatalf("round %d: worker rank %d: %v", round, r, err)
			}
		}
	}
}

// TestValidationErrorKeepsLockstep applies an invalid batch (rejected on
// every rank before any machine region) and checks the session still
// works afterwards.
func TestValidationErrorKeepsLockstep(t *testing.T) {
	const p = 2
	d, _, _ := mesh(t, p)
	defer d.Shutdown()

	g := graph.Grid2D(4, 4, 1, 1)
	eng, err := d.NewEngine("g", g, repro.DynamicOptions{Procs: p, Workers: 1})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if _, err := eng.ApplyCtx(context.Background(), []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 0, W: 1}}); err == nil {
		t.Fatal("self-loop batch: want error, got nil")
	}
	rep, err := eng.ApplyCtx(context.Background(), []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 15, W: 1}})
	if err != nil {
		t.Fatalf("apply after rejected batch: %v", err)
	}
	if rep.Applied != 1 {
		t.Fatalf("applied = %d, want 1", rep.Applied)
	}
}

// TestMultipleEngines interleaves applies on two named engines over one
// mesh; the driver serializes them onto the shared machine.
func TestMultipleEngines(t *testing.T) {
	const p = 2
	d, _, _ := mesh(t, p)
	defer d.Shutdown()

	engines := make([]*Engine, 2)
	for i := range engines {
		g := graph.Grid2D(4, 4, i+1, int64(i))
		e, err := d.NewEngine(fmt.Sprintf("g%d", i), g, repro.DynamicOptions{Procs: p, Workers: 1})
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		engines[i] = e
	}
	for round := 0; round < 2; round++ {
		for i, e := range engines {
			m := graph.Mutation{Op: graph.OpAddEdge, U: int32(i), V: int32(8 + round), W: 1}
			if _, err := e.ApplyCtx(context.Background(), []graph.Mutation{m}); err != nil {
				t.Fatalf("round %d engine %d: %v", round, i, err)
			}
		}
	}
	for i, e := range engines {
		if got := e.Scores().Seq; got != 2 {
			t.Fatalf("engine %d seq = %d, want 2", i, got)
		}
	}
}

// TestEngineProcsMustMatchMesh pins the size validation.
func TestEngineProcsMustMatchMesh(t *testing.T) {
	const p = 2
	d, _, _ := mesh(t, p)
	defer d.Shutdown()
	if _, err := d.NewEngine("g", graph.Grid2D(3, 3, 1, 1), repro.DynamicOptions{Procs: p + 1}); err == nil {
		t.Fatal("mismatched Procs: want error, got nil")
	}
}

// TestEngineOpRoundTripsEveryOption: the opEngine wire form must carry
// every streaming option to the worker ranks. repro.DynamicOptions is the
// engine's own Config, so a field gob cannot encode — or one dropped on
// the way — would silently desynchronize -transport tcp replicas. Every
// field except the process-local Transport is set to a non-zero value
// (checked by reflection, so a new option fails here until it is covered)
// and compared field by field after encodeOp → gob decode, the path
// ServeWorker takes.
func TestEngineOpRoundTripsEveryOption(t *testing.T) {
	sent := op{
		Kind: opEngine, Name: "g", Graph: graph.Grid2D(3, 3, 4, 1),
		Opt: repro.DynamicOptions{Workers: 3, DirtyThreshold: 0.4, Procs: 4},
	}
	raw, err := encodeOp(sent)
	if err != nil {
		t.Fatal(err)
	}
	var got op
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, have := reflect.ValueOf(sent.Opt), reflect.ValueOf(got.Opt)
	for i := 0; i < want.NumField(); i++ {
		name := want.Type().Field(i).Name
		if name == "Transport" {
			if !have.Field(i).IsNil() {
				t.Fatalf("Transport crossed the wire: %v", have.Field(i))
			}
			continue
		}
		if want.Field(i).IsZero() {
			t.Fatalf("option %s is unset in this test; populate it so the round trip covers it", name)
		}
		if !reflect.DeepEqual(want.Field(i).Interface(), have.Field(i).Interface()) {
			t.Fatalf("option %s: sent %+v, received %+v", name, want.Field(i), have.Field(i))
		}
	}
	if got.Kind != sent.Kind || got.Name != sent.Name || graph.Fingerprint(got.Graph) != graph.Fingerprint(sent.Graph) {
		t.Fatalf("op envelope changed in flight: %+v", got)
	}
}
