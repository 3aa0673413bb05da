package testkit

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/machine"
)

// AllocMeter reads, inside a machine region, what the process allocates
// while every rank runs an operation. Rank 0 reads the counters while the
// others wait yielding, not in a machine barrier: a barrier waiter that
// exhausts its yields parks on a channel it makes, so a barrier around the
// reading would count its own parks. Its caller holds the collector off.
type AllocMeter struct {
	p                int
	tries            []int64 // by rank: the tries it has begun
	opened, finished atomic.Int64
}

// NewAllocMeter returns a meter for the ranks of a p-rank region.
func NewAllocMeter(p int) *AllocMeter {
	return &AllocMeter{p: p, tries: make([]int64, p)}
}

// Least runs op tries times on the calling rank, in step with the others,
// which call it with the same tries, and returns on rank 0 the fewest bytes
// the process allocated in one try (elsewhere 0). A rank slow to reach a
// collective can make a peer park in any try, but an op that allocates does
// so in every try.
func (m *AllocMeter) Least(pr *machine.Proc, tries int, op func()) uint64 {
	me := pr.Rank()
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for range tries {
		m.tries[me]++
		k := m.tries[me]
		if me == 0 {
			runtime.ReadMemStats(&before)
			m.opened.Store(k)
		}
		for m.opened.Load() < k {
			runtime.Gosched()
		}
		op()
		m.finished.Add(1)
		if me != 0 {
			continue
		}
		for m.finished.Load() < k*int64(m.p) {
			runtime.Gosched()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if me != 0 {
		return 0
	}
	return least
}
