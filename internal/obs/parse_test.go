package obs

import (
	"math"
	"strings"
	"testing"
)

// TestParseTextRoundTrip pins ParseText as the inverse of WriteText over
// every metric shape the registry renders: what the instruments hold is
// what a reader of the exposition gets back, series for series.
func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help text with spaces")
	g := r.Gauge("depth", "Depth.")
	r.GaugeFunc("fixed", "Scrape-computed.", func() float64 { return 42 })
	v := r.CounterVec("y", "Vec.", "a", "b")
	h := r.Histogram("lat", "Latency.", []float64{0.5, 1})
	hv := r.HistogramVec("sz", "Size.", []float64{10}, "route")

	c.Add(3)
	g.Set(-2.5)
	v.With("1", "q r").Add(2.5) // label value with a space
	v.With("2", "s")            // pre-registered child at zero
	h.Observe(0.25)
	h.ObserveExemplar(0.31, "t000007", "s01")
	h.Observe(7)
	hv.With("query").Observe(4)

	text := r.Text()
	if !strings.Contains(text, `lat_bucket{le="0.5"} 2 # {span_id="s01",trace_id="t000007"} 0.31`) {
		t.Fatalf("fixture carries no exemplar suffix:\n%s", text)
	}
	got, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	want := Samples{
		"x_total":                            3,
		"depth":                              -2.5,
		"fixed":                              42,
		`y{a="1",b="q r"}`:                   2.5,
		`y{a="2",b="s"}`:                     0,
		`lat_bucket{le="0.5"}`:               2, // exemplar suffix stripped
		`lat_bucket{le="1"}`:                 2,
		`lat_bucket{le="+Inf"}`:              3,
		"lat_sum":                            7.56,
		"lat_count":                          3,
		`sz_bucket{le="10",route="query"}`:   1,
		`sz_bucket{le="+Inf",route="query"}`: 1,
		`sz_sum{route="query"}`:              4,
		`sz_count{route="query"}`:            1,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d series, want %d:\n%v", len(got), len(want), got)
	}
	for k, w := range want {
		if have, ok := got[k]; !ok || math.Abs(have-w) > 1e-12 {
			t.Fatalf("series %s = %v (present %t), want %v", k, have, ok, w)
		}
	}

	for _, bad := range []string{"lonelytoken\n", "x notanumber\n"} {
		if _, err := ParseText(bad); err == nil {
			t.Fatalf("malformed sample line %q must be an error", bad)
		}
	}
}
