package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"
)

// SpanRecord is one finished span as exported in the trace JSONL: every
// line is a self-contained record, the parent references encode the tree,
// and StartUS/DurUS are microseconds relative to the trace's root start so
// records never carry absolute timestamps.
type SpanRecord struct {
	Trace   string         `json:"trace"`
	Span    string         `json:"span"`
	Parent  string         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Tracer collects request traces into a bounded ring buffer and,
// optionally, streams finished traces to a JSONL sink. A head sampler
// (SetSampleRate) bounds retention under production rates: traces keep
// recording but only a sampled subset — plus anything force-kept, see
// Span.ForceKeep — is sealed. A nil *Tracer is the disabled state: Start
// returns a nil span and every span method no-ops, so instrumentation
// points cost one nil check when tracing is off.
type Tracer struct {
	mu         sync.Mutex
	cap        int
	ring       [][]SpanRecord // guarded by mu; completed traces, oldest first
	nextID     uint64         // guarded by mu
	sink       io.Writer      // guarded by mu
	dropped    uint64         // guarded by mu; traces evicted from the ring
	sample     float64        // guarded by mu; head-sampling keep probability
	sampledOut uint64         // guarded by mu; traces the head sampler discarded
}

// NewTracer creates a tracer retaining the most recent capacity traces
// (minimum 1). The sample rate starts at 1 (keep every trace); see
// SetSampleRate.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{cap: capacity, sample: 1}
}

// SetSampleRate sets the head-sampling keep probability, clamped to
// [0, 1]. Each trace draws its keep decision at Start from a hash of its
// trace ID, so the decision is stable per trace and the kept set is a
// rate-p subset of the ID sequence; traces sampled out still record spans
// but are discarded (counted by SampledOut) instead of sealed at finish.
// ForceKeep overrides the decision per trace — error and slow requests
// stay observable at any rate. Rate 0 keeps only force-kept traces.
func (tr *Tracer) SetSampleRate(p float64) {
	if tr == nil {
		return
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	tr.mu.Lock()
	tr.sample = p
	tr.mu.Unlock()
}

// sampleKeep is the head decision for one trace ID: the ID hashes to a
// uniform point in [0, 1) which is kept iff it falls below the rate.
// Deterministic per ID (no global randomness), statistically a rate-p
// sample over the ID sequence.
func sampleKeep(id string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, id)
	return float64(h.Sum64()>>11)/(1<<53) < rate
}

// SetSink directs finished traces to w as JSONL, one span record per
// line, flushed when each trace's root span ends. Pass nil to detach.
func (tr *Tracer) SetSink(w io.Writer) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.sink = w
	tr.mu.Unlock()
}

// trace is one in-flight request trace accumulating span records until
// the root span ends.
type trace struct {
	tr       *Tracer
	id       string
	start    time.Time
	keep     bool // head-sampling decision, fixed at Start
	mu       sync.Mutex
	records  []SpanRecord // guarded by mu
	nextSpan int          // guarded by mu
	forced   bool         // guarded by mu; ForceKeep override
}

func (t *trace) spanID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	return fmt.Sprintf("s%02d", t.nextSpan)
}

func (t *trace) append(rec SpanRecord) {
	t.mu.Lock()
	t.records = append(t.records, rec)
	t.mu.Unlock()
}

// Span is one timed region of a trace. A nil *Span is valid and inert.
type Span struct {
	t      *trace
	id     string
	parent string
	name   string
	start  time.Time // zero for post-hoc spans added via AddCompleted

	mu       sync.Mutex
	startUS  int64          // guarded by mu (fixed at creation; read by children)
	cursorUS int64          // guarded by mu; layout offset for AddCompleted children
	attrs    map[string]any // guarded by mu
	ended    bool           // guarded by mu
}

type spanKey struct{}

// Start begins a new root span (a new trace). The returned context
// carries the span; StartSpan calls downstream attach children to it. On
// a nil tracer the context is returned unchanged with a nil span.
func (tr *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if tr == nil {
		return ctx, nil
	}
	tr.mu.Lock()
	tr.nextID++
	id := fmt.Sprintf("t%06d", tr.nextID)
	rate := tr.sample
	tr.mu.Unlock()
	t := &trace{tr: tr, id: id, start: time.Now(), keep: sampleKeep(id, rate)}
	s := &Span{t: t, id: t.spanID(), name: name, start: t.start}
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartSpan begins a child of the span carried by ctx, with a live
// wall-clock start. When ctx carries no span (tracing disabled or not a
// traced request) it returns ctx and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	now := time.Now()
	s := &Span{
		t:       parent.t,
		id:      parent.t.spanID(),
		parent:  parent.id,
		name:    name,
		start:   now,
		startUS: now.Sub(parent.t.start).Microseconds(),
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// ForceKeep marks the span's trace as always-kept, overriding the head
// sampler: the HTTP middleware calls it for error and slow requests so
// those traces survive any sample rate. No-op on a nil span.
func (s *Span) ForceKeep() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.t.forced = true
	s.t.mu.Unlock()
}

// Kept reports whether the span's trace will be retained when it finishes
// (head-sampled in, or force-kept). Exemplar attachment consults it so
// histograms only reference traces that actually exist in the ring/sink.
// False on a nil span.
func (s *Span) Kept() bool {
	if s == nil {
		return false
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.keep || s.t.forced
}

// IDs returns the trace and span identifiers, empty on a nil span.
func (s *Span) IDs() (traceID, spanID string) {
	if s == nil {
		return "", ""
	}
	return s.t.id, s.id
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// SetAttr attaches a key/value attribute, returning the span for
// chaining. No-op on a nil span or after End.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]any)
		}
		s.attrs[key] = value
	}
	s.mu.Unlock()
	return s
}

// AddCompleted attaches an already-finished child span of the given
// duration. Children are laid out sequentially after any previous
// AddCompleted child of s — the caller supplies only durations, so layers
// that must not read wall clocks themselves (the deterministic core) can
// still report timed sub-structure. Returns the child so grandchildren
// (e.g. per-phase spans under a machine region) can hang off it.
func (s *Span) AddCompleted(name string, dur time.Duration, attrs map[string]any) *Span {
	if s == nil {
		return nil
	}
	durUS := dur.Microseconds()
	s.mu.Lock()
	startUS := s.startUS + s.cursorUS
	s.cursorUS += durUS
	s.mu.Unlock()
	child := &Span{t: s.t, id: s.t.spanID(), parent: s.id, name: name, startUS: startUS}
	var copied map[string]any
	if len(attrs) > 0 {
		copied = make(map[string]any, len(attrs))
		for k, v := range attrs {
			copied[k] = v
		}
	}
	s.t.append(SpanRecord{
		Trace:   s.t.id,
		Span:    child.id,
		Parent:  child.parent,
		Name:    name,
		StartUS: startUS,
		DurUS:   durUS,
		Attrs:   copied,
	})
	return child
}

// End finishes the span. Ending a root span seals the trace: its records
// move into the tracer's ring buffer and, if a sink is attached, are
// flushed as JSONL.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	durUS := int64(0)
	if !s.start.IsZero() {
		durUS = time.Since(s.start).Microseconds()
	}
	s.t.append(SpanRecord{
		Trace:   s.t.id,
		Span:    s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.startUS,
		DurUS:   durUS,
		Attrs:   attrs,
	})
	if s.parent == "" {
		s.t.finish()
	}
}

// finish seals a trace into the tracer's ring and sink, or discards it if
// the head sampler dropped it and nothing forced a keep.
func (t *trace) finish() {
	t.mu.Lock()
	records := t.records
	t.records = nil
	keep := t.keep || t.forced
	t.mu.Unlock()
	if len(records) == 0 {
		return
	}
	tr := t.tr
	tr.mu.Lock()
	if !keep {
		tr.sampledOut++
		tr.mu.Unlock()
		return
	}
	tr.ring = append(tr.ring, records)
	if len(tr.ring) > tr.cap {
		drop := len(tr.ring) - tr.cap
		tr.ring = append([][]SpanRecord(nil), tr.ring[drop:]...)
		tr.dropped += uint64(drop)
	}
	sink := tr.sink
	var buf []byte
	if sink != nil {
		for _, rec := range records {
			line, err := json.Marshal(rec)
			if err != nil {
				continue
			}
			buf = append(buf, line...)
			buf = append(buf, '\n')
		}
		// Written under mu so concurrent traces never interleave lines.
		_, _ = sink.Write(buf)
	}
	tr.mu.Unlock()
}

// SampledOut reports how many finished traces the head sampler discarded
// (distinct from the ring's evictions of kept traces).
func (tr *Tracer) SampledOut() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.sampledOut
}

// Traces returns the buffered traces, oldest first.
func (tr *Tracer) Traces() [][]SpanRecord {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([][]SpanRecord, len(tr.ring))
	copy(out, tr.ring)
	return out
}

// writeJSONL writes every buffered trace to w, one span record per line,
// oldest trace first.
func (tr *Tracer) writeJSONL(w io.Writer) error {
	for _, records := range tr.Traces() {
		for _, rec := range records {
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the buffered traces as JSONL (the GET /debug/traces
// endpoint).
func (tr *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = tr.writeJSONL(w)
	})
}
