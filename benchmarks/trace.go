package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// spanRecord is one benchmark span: a call from the benchmark into a layer
// (Op names the function), or a span an obs.Tracer recorded inside the
// program and that was merged in under the call that caused it.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = top level
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"`
	Origin  string `json:"origin,omitempty"` // "obs" for merged tracer spans
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced state: begin returns a nil span and every method no-ops.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRecord
}

type span struct {
	r  *recorder
	id int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(parent *span, name, op string) *span {
	if r == nil {
		return nil
	}
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := spanRecord{ID: len(r.spans) + 1, Name: name, Op: op, StartUS: now, EndUS: -1}
	if parent != nil {
		rec.Parent = parent.id
	}
	r.spans = append(r.spans, rec)
	return &span{r: r, id: rec.ID}
}

func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Since(s.r.t0).Microseconds()
	s.r.mu.Lock()
	s.r.spans[s.id-1].EndUS = now
	s.r.mu.Unlock()
}

// mergeObs attaches traces collected by an obs.Tracer as descendants of
// parent. Tracer records carry offsets from their own root, so each trace
// is laid out from the parent span's start.
func (r *recorder) mergeObs(parent *span, traces [][]obs.SpanRecord) {
	if r == nil || parent == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.spans[parent.id-1].StartUS
	for _, tr := range traces {
		ids := make(map[string]int, len(tr))
		for _, rec := range tr {
			ids[rec.Span] = len(r.spans) + 1 + len(ids)
		}
		for _, rec := range tr {
			p := parent.id
			if rec.Parent != "" {
				p = ids[rec.Parent]
			}
			r.spans = append(r.spans, spanRecord{
				ID: len(r.spans) + 1, Parent: p, Name: rec.Name, Origin: "obs",
				StartUS: base + rec.StartUS, EndUS: base + rec.StartUS + rec.DurUS,
			})
		}
	}
}

type interval struct{ lo, hi int64 }

// covered is the length of the union of ivs clipped to [lo,hi].
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	at := lo
	for _, iv := range ivs {
		if iv.lo < at {
			iv.lo = at
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			total += iv.hi - iv.lo
			at = iv.hi
		}
	}
	return total
}

// selfTimes returns, per span name, the summed self time in microseconds:
// a span's duration minus the part of it its children cover.
func (r *recorder) selfTimes() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range r.spans {
		if s.Parent != 0 && s.EndUS >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartUS, s.EndUS})
		}
	}
	out := make(map[string]int64)
	for _, s := range r.spans {
		if s.EndUS < 0 {
			continue
		}
		out[s.Name] += (s.EndUS - s.StartUS) - covered(children[s.ID], s.StartUS, s.EndUS)
	}
	return out
}

// coverage is the share of [lo,hi] (offsets from the recorder's start)
// that the top-level spans cover.
func (r *recorder) coverage(lo, hi time.Duration) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var top []interval
	for _, s := range r.spans {
		if s.Parent == 0 && s.EndUS >= 0 {
			top = append(top, interval{s.StartUS, s.EndUS})
		}
	}
	l, h := lo.Microseconds(), hi.Microseconds()
	if h <= l {
		return 0
	}
	return float64(covered(top, l, h)) / float64(h-l)
}

// write stores the spans as JSON lines, one span per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
