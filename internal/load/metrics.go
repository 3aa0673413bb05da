package load

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// seriesLabels parses `name{k="v",...}` into its name and label map
// (label values hold no escaped quotes in this codebase's fixed
// vocabularies, so a simple split suffices).
func seriesLabels(series string) (name string, labels map[string]string) {
	open := strings.IndexByte(series, '{')
	if open < 0 {
		return series, nil
	}
	name = series[:open]
	labels = map[string]string{}
	body := strings.TrimSuffix(series[open+1:], "}")
	for _, pair := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		labels[k] = strings.Trim(v, `"`)
	}
	return name, labels
}

// ServerSummary is the server's own view of a run, computed from a
// /metrics delta over the request-serving routes: how many requests the
// server counted and its latency percentiles from the duration-histogram
// bucket deltas. Each quantile resolves to its bucket's upper edge
// (conservative: the true quantile is ≤ the reported value); a quantile
// landing in the +Inf bucket reports the largest finite edge instead,
// flagged by Clipped.
type ServerSummary struct {
	Requests int64   `json:"requests"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	Clipped  bool    `json:"clipped"`
}

// loadRoutes are the routes the harness drives; the server-side summary
// and the client/server cross-check cover exactly these.
var loadRoutes = map[string]bool{"query": true, "mutate": true}

// serverSide summarizes a metrics delta over the harness-driven routes.
func serverSide(m obs.Samples) ServerSummary {
	var sum ServerSummary
	buckets := map[float64]float64{} // le upper edge → count delta
	series := make([]string, 0, len(m))
	for k := range m {
		series = append(series, k)
	}
	sort.Strings(series) // deterministic fold order for the float sums
	for _, key := range series {
		v := m[key]
		name, labels := seriesLabels(key)
		switch name {
		case "mfbc_http_requests_total":
			if loadRoutes[labels["route"]] {
				sum.Requests += int64(v + 0.5)
			}
		case "mfbc_http_request_duration_seconds_bucket":
			if !loadRoutes[labels["route"]] {
				continue
			}
			le, err := strconv.ParseFloat(labels["le"], 64)
			if err != nil {
				if labels["le"] == "+Inf" {
					le = math.Inf(1)
				} else {
					continue
				}
			}
			buckets[le] += v
		}
	}
	if len(buckets) == 0 {
		return sum
	}
	edges := make([]float64, 0, len(buckets))
	for le := range buckets {
		edges = append(edges, le)
	}
	sort.Float64s(edges)
	// The exposition is cumulative; deltas of cumulative counts are
	// cumulative too, so the total is the +Inf (last) bucket.
	total := buckets[edges[len(edges)-1]]
	if total <= 0 {
		return sum
	}
	quantile := func(q float64) float64 {
		rank := math.Ceil(q * total)
		for _, le := range edges {
			if buckets[le] >= rank {
				if math.IsInf(le, 1) {
					sum.Clipped = true
					if len(edges) > 1 {
						return edges[len(edges)-2] * 1e3
					}
					return 0
				}
				return le * 1e3
			}
		}
		return 0
	}
	sum.P50MS = quantile(0.50)
	sum.P95MS = quantile(0.95)
	sum.P99MS = quantile(0.99)
	return sum
}

// CrossCheck verifies the client-observed and server-observed request
// counts agree: every request the driver dispatched must appear on the
// server's route counters.
func (r *RunResult) CrossCheck() error {
	// Transport-level failures never produced a server-side sample. The
	// recorder folds them into Errors together with HTTP-level failures
	// (which DID reach the server), so the check is equality modulo the
	// error count rather than exact equality.
	server := r.Server.Requests
	client := int64(r.Total.Requests)
	errs := int64(r.Total.Errors)
	if server >= client-errs && server <= client {
		return nil
	}
	return fmt.Errorf("load: request-count cross-check failed: client observed %d (%d errors), server counted %d",
		client, errs, server)
}
