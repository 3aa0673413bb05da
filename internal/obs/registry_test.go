package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "Total requests.")
	g := r.Gauge("in_flight", "In-flight requests.")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	g.Set(7)
	g.Add(-3)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value = %v, want 3.5", got)
	}
	if got := g.value(); got != 4 {
		t.Fatalf("gauge value = %v, want 4", got)
	}
	text := r.Text()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		"reqs_total 3.5",
		"# TYPE in_flight gauge",
		"in_flight 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup", "second")
}

// TestHistogramBucketEdges pins the boundary rule: a value exactly on a
// bucket's upper edge counts in that bucket (le is inclusive), values
// above the top finite bound land only in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{1, 2, 4})

	h.Observe(1) // exactly on first edge → le="1"
	h.Observe(2) // exactly on second edge → le="2"
	h.Observe(4) // exactly on top finite edge → le="4"
	h.Observe(5) // above all finite bounds → +Inf only

	bounds, cum := h.snapshot()
	wantBounds := []float64{1, 2, 4, math.Inf(1)}
	if len(bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
	}
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] {
			t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
		}
	}
	wantCum := []uint64{1, 2, 3, 4}
	for i := range wantCum {
		if cum[i] != wantCum[i] {
			t.Fatalf("cumulative = %v, want %v", cum, wantCum)
		}
	}
	if got := h.sum(); got != 12 {
		t.Fatalf("sum = %v, want 12", got)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %v, want 4", got)
	}

	text := r.Text()
	for _, want := range []string{
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 2`,
		`lat_bucket{le="4"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		`lat_sum 12`,
		`lat_count 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestHistogramEmpty pins the all-zero exposition of a histogram that has
// never observed anything — every bucket present, sum and count zero.
func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty", "Never observed.", []float64{0.5})
	text := r.Text()
	for _, want := range []string{
		`empty_bucket{le="0.5"} 0`,
		`empty_bucket{le="+Inf"} 0`,
		`empty_sum 0`,
		`empty_count 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_reqs_total", "Requests by route/code.", "route", "code")
	v.With("query", "200").Add(3)
	v.With("query", "404").Inc()
	v.With("mutate", "200").Inc()
	hv := r.HistogramVec("dur", "Duration by route.", []float64{1}, "route")
	hv.With("query").Observe(0.5)

	if got := v.With("query", "200").Value(); got != 3 {
		t.Fatalf("repeat With returned a different child: value %v, want 3", got)
	}
	text := r.Text()
	for _, want := range []string{
		`http_reqs_total{code="200",route="mutate"} 1`,
		`http_reqs_total{code="200",route="query"} 3`,
		`http_reqs_total{code="404",route="query"} 1`,
		`dur_bucket{le="1",route="query"} 1`,
		`dur_bucket{le="+Inf",route="query"} 1`,
		`dur_count{route="query"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Families sorted by name: dur before http_reqs_total.
	if strings.Index(text, "# TYPE dur histogram") > strings.Index(text, "# TYPE http_reqs_total counter") {
		t.Errorf("families not sorted by name:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc", "Escapes.", "g")
	v.With(`a"b\c` + "\n").Inc()
	text := r.Text()
	want := `esc{g="a\"b\\c\n"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition missing %q:\n%s", want, text)
	}
}

// TestExpositionDeterministic hammers a registry from concurrent writers,
// quiesces, then requires repeated scrapes to be byte-identical — the
// /metrics determinism contract. Run under -race this also proves the
// update paths are race-clean against scrapes (a mid-load scrape is taken
// and discarded).
func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("total", "Total.")
	v := r.CounterVec("by_route", "By route.", "route")
	h := r.Histogram("lat", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	hv := r.HistogramVec("sz", "Size.", []float64{10, 100}, "route")
	r.GaugeFunc("fixed", "Scrape-computed but constant.", func() float64 { return 42 })

	routes := []string{"query", "mutate", "stats", "graphs"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				route := routes[(w+i)%len(routes)]
				v.With(route).Inc()
				h.Observe(float64(i%7) * 0.003)
				hv.With(route).Observe(float64(i % 150))
			}
		}(w)
	}
	// Scrape mid-load: value is meaningless but must be race-free.
	_ = r.Text()
	wg.Wait()

	first := r.Text()
	for i := 0; i < 5; i++ {
		if again := r.Text(); again != first {
			t.Fatalf("scrape %d differs from first scrape:\n--- first ---\n%s\n--- again ---\n%s", i, first, again)
		}
	}
	if !strings.Contains(first, "total 8000") {
		t.Errorf("expected total 8000 in exposition:\n%s", first)
	}
}

func TestMergeSigOrdersKeys(t *testing.T) {
	// le sorts before "route" and after "code": the merged signature must
	// stay key-sorted wherever le lands.
	if got := mergeSig(`{route="q"}`, "le", "0.5"); got != `{le="0.5",route="q"}` {
		t.Fatalf("mergeSig = %s", got)
	}
	if got := mergeSig(`{code="200"}`, "le", "+Inf"); got != `{code="200",le="+Inf"}` {
		t.Fatalf("mergeSig = %s", got)
	}
	if got := mergeSig("", "le", "1"); got != `{le="1"}` {
		t.Fatalf("mergeSig = %s", got)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		1:           "1",
		3.5:         "3.5",
		0.0001:      "0.0001",
		math.Inf(1): "+Inf",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}
