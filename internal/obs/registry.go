// Package obs is the zero-dependency observability layer of the service:
// a metrics registry with deterministic Prometheus-text exposition, a
// lightweight request tracer whose spans propagate through
// context.Context, and runtime gauges for profiling.
//
// Design constraints, in order:
//
//   - Determinism: the /metrics exposition is byte-stable — families sorted
//     by name, series sorted by label signature, floats formatted by one
//     canonical rule — so two scrapes of identical state are identical
//     bytes and diffs across scrapes are pure value changes.
//   - Near-zero disabled-path overhead: metric updates are single atomics;
//     tracing disabled means one nil context lookup per instrumentation
//     point and nothing else.
//   - Zero dependencies: nothing beyond the standard library, matching the
//     repo's no-new-modules constraint.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named metric families and renders them as Prometheus
// text exposition. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu; name → family
}

// family is one named metric: a fixed type, help text, and either a single
// unlabeled series or a set of labeled children.
type family struct {
	name   string
	help   string
	typ    string   // "counter" | "gauge" | "histogram"
	labels []string // label names of vec families (nil for scalars)

	mu       sync.Mutex
	scalar   metric            // unlabeled families
	children map[string]metric // guarded by mu; label signature → child
}

// metric is the value surface a family exposes: each concrete type renders
// its own sample lines.
type metric interface {
	sampleLines(name, labelSig string) []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register installs a family, panicking on a duplicate name: metric names
// are a global contract (dashboards and the benchmark join on them), so
// colliding registrations are programmer error, not a runtime condition.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
	return f
}

// Counter registers and returns a monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", scalar: c})
	return c
}

// Gauge registers and returns a set-table gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", scalar: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time (the
// runtime gauges and the server's registry-size gauges use it). fn must be
// safe to call concurrently with everything else.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", scalar: gaugeFunc(fn)})
}

// Histogram registers and returns a fixed-bucket histogram. bounds are the
// inclusive upper bucket edges, strictly ascending; a +Inf bucket is always
// appended implicitly. Nil bounds select DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&family{name: name, help: help, typ: "histogram", scalar: h})
	return h
}

// CounterVec registers a counter family partitioned by the given labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(&family{
		name: name, help: help, typ: "counter", labels: labels,
		children: make(map[string]metric),
	})
	return &CounterVec{f: f}
}

// HistogramVec registers a histogram family partitioned by the given
// labels, every child sharing one fixed bucket layout.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.register(&family{
		name: name, help: help, typ: "histogram", labels: labels,
		children: make(map[string]metric),
	})
	if bounds == nil {
		bounds = DefBuckets()
	}
	return &HistogramVec{f: f, bounds: append([]float64(nil), bounds...)}
}

// child returns the labeled child metric, creating it with mk on first use.
func (f *family) child(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	sig := labelSig(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[sig]
	if !ok {
		m = mk()
		f.children[sig] = m
	}
	return m
}

// labelSig renders the canonical label signature {a="x",b="y"}: label names
// sorted, values escaped. It is both the child key and the exposition form.
func labelSig(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, len(names))
	for i := range names {
		kvs[i] = kv{names[i], values[i]}
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeSig inserts extra label pairs (already escaped names like le) into a
// signature, keeping keys sorted. sig may be "".
func mergeSig(sig, key, val string) string {
	pair := key + `="` + escapeLabel(val) + `"`
	if sig == "" {
		return "{" + pair + "}"
	}
	inner := sig[1 : len(sig)-1]
	parts := strings.Split(inner, ",")
	out := make([]string, 0, len(parts)+1)
	inserted := false
	for _, p := range parts {
		if !inserted && p > pair {
			out = append(out, pair)
			inserted = true
		}
		out = append(out, p)
	}
	if !inserted {
		out = append(out, pair)
	}
	return "{" + strings.Join(out, ",") + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatValue is the one canonical float rendering of the exposition:
// shortest round-trip form, so equal values are equal bytes.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in Prometheus text exposition format,
// deterministically: families sorted by name, series within a family sorted
// by label signature.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.children == nil {
			for _, line := range f.scalar.sampleLines(f.name, "") {
				b.WriteString(line)
				b.WriteByte('\n')
			}
			continue
		}
		f.mu.Lock()
		sigs := make([]string, 0, len(f.children))
		for sig := range f.children {
			sigs = append(sigs, sig)
		}
		kids := make(map[string]metric, len(f.children))
		for sig, m := range f.children {
			kids[sig] = m
		}
		f.mu.Unlock()
		sort.Strings(sigs)
		for _, sig := range sigs {
			for _, line := range kids[sig].sampleLines(f.name, sig) {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Text renders the exposition to a string.
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

// Handler serves the exposition over HTTP (the GET /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
