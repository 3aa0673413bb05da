package obs

import "math"

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Dropped reports how many finished traces the ring has evicted.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dropped
}
