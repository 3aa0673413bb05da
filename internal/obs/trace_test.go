package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTracerAndNilSpanAreInert(t *testing.T) {
	var tr *Tracer
	ctx, root := tr.Start(context.Background(), "req")
	if root != nil {
		t.Fatal("nil tracer Start returned a live span")
	}
	ctx2, child := StartSpan(ctx, "inner")
	if child != nil {
		t.Fatal("StartSpan without an active span returned a live span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without an active span replaced the context")
	}
	// All span methods must no-op on nil.
	child.SetAttr("k", 1)
	if got := child.AddCompleted("post", time.Millisecond, nil); got != nil {
		t.Fatal("nil span AddCompleted returned a live span")
	}
	child.End()
	root.End()
	tr.SetSink(nil)
	if tr.Traces() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer has state")
	}
}

func TestTraceTreeAndRecords(t *testing.T) {
	tr := NewTracer(8)
	ctx, root := tr.Start(context.Background(), "http.mutate")
	root.SetAttr("route", "mutate")
	_, child := StartSpan(ctx, "dynamic.apply")
	child.SetAttr("strategy", "incremental")
	region := child.AddCompleted("machine.region", 3*time.Millisecond, map[string]any{"plan": "fused"})
	region.AddCompleted("phase.patch", 1*time.Millisecond, map[string]any{"flops": 10.0})
	region.AddCompleted("phase.sweep", 2*time.Millisecond, map[string]any{"flops": 90.0})
	child.End()
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	recs := traces[0]
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if len(byName) != 5 {
		t.Fatalf("got %d distinct spans, want 5: %+v", len(byName), recs)
	}
	httpRec, applyRec := byName["http.mutate"], byName["dynamic.apply"]
	regionRec := byName["machine.region"]
	patchRec, sweepRec := byName["phase.patch"], byName["phase.sweep"]

	if httpRec.Parent != "" {
		t.Errorf("root has parent %q", httpRec.Parent)
	}
	if applyRec.Parent != httpRec.Span {
		t.Errorf("apply parent = %q, want %q", applyRec.Parent, httpRec.Span)
	}
	if regionRec.Parent != applyRec.Span {
		t.Errorf("region parent = %q, want %q", regionRec.Parent, applyRec.Span)
	}
	if patchRec.Parent != regionRec.Span || sweepRec.Parent != regionRec.Span {
		t.Errorf("phase parents = %q/%q, want %q", patchRec.Parent, sweepRec.Parent, regionRec.Span)
	}
	// AddCompleted children lay out sequentially inside their parent.
	if regionRec.DurUS != 3000 || patchRec.DurUS != 1000 || sweepRec.DurUS != 2000 {
		t.Errorf("durations = %d/%d/%d", regionRec.DurUS, patchRec.DurUS, sweepRec.DurUS)
	}
	if patchRec.StartUS != regionRec.StartUS {
		t.Errorf("first phase start %d != region start %d", patchRec.StartUS, regionRec.StartUS)
	}
	if sweepRec.StartUS != patchRec.StartUS+patchRec.DurUS {
		t.Errorf("second phase start %d, want %d", sweepRec.StartUS, patchRec.StartUS+patchRec.DurUS)
	}
	if got := regionRec.Attrs["plan"]; got != "fused" {
		t.Errorf("region plan attr = %v", got)
	}
	if got := httpRec.Attrs["route"]; got != "mutate" {
		t.Errorf("root route attr = %v", got)
	}
}

func TestTracerRingBoundAndSink(t *testing.T) {
	tr := NewTracer(2)
	var sink strings.Builder
	tr.SetSink(&sink)
	for i := 0; i < 5; i++ {
		_, root := tr.Start(context.Background(), "req")
		root.End()
	}
	if got := len(tr.Traces()); got != 2 {
		t.Fatalf("ring holds %d traces, want 2", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	// The sink saw every trace, not just the retained ones.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("sink got %d lines, want 5:\n%s", len(lines), sink.String())
	}
	for _, line := range lines {
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("sink line is not valid JSON: %v\n%s", err, line)
		}
		if rec.Name != "req" || rec.Trace == "" || rec.Span == "" {
			t.Fatalf("bad record: %+v", rec)
		}
	}

	var out strings.Builder
	if err := tr.writeJSONL(&out); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(out.String()), "\n")); got != 2 {
		t.Fatalf("WriteJSONL wrote %d lines, want 2", got)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer(4)
	_, root := tr.Start(context.Background(), "req")
	root.End()
	root.End()
	if got := len(tr.Traces()); got != 1 {
		t.Fatalf("double End produced %d traces, want 1", got)
	}
	if got := len(tr.Traces()[0]); got != 1 {
		t.Fatalf("double End produced %d records, want 1", got)
	}
}

func TestConcurrentTraces(t *testing.T) {
	tr := NewTracer(64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				ctx, root := tr.Start(context.Background(), "req")
				_, child := StartSpan(ctx, "inner")
				child.AddCompleted("leaf", time.Microsecond, nil)
				child.End()
				root.End()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := len(tr.Traces()); got != 64 {
		t.Fatalf("ring holds %d traces, want 64", got)
	}
	if got := tr.Dropped(); got != 8*50-64 {
		t.Fatalf("dropped = %d, want %d", got, 8*50-64)
	}
}
