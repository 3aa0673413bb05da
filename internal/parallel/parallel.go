// Package parallel provides the shared-memory execution primitives used to
// parallelize local kernels across cores: deterministic contiguous range
// partitioning and a fork-join For loop.
//
// The distributed layer (internal/machine) simulates the p ranks of the
// paper's machine as goroutines; this package parallelizes the *local*
// compute each rank performs between collectives (the Gustavson SpGEMM,
// entry sorts, and sorted merges), so batched multi-source MFBC can use
// every core of the host. All partitioners are deterministic, and every
// parallel kernel built on them is required to produce output identical to
// its sequential counterpart.
package parallel

import (
	"runtime"
	"sync"
)

// Resolve returns the effective worker count for a user-supplied knob:
// n <= 0 selects GOMAXPROCS (all cores), anything else is returned as-is.
func Resolve(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Ranges partitions [0, n) into at most parts contiguous ranges, the first
// n%parts one element larger — the same convention as distmat.PartBounds,
// so row blocks computed here line up with the distribution layer. Empty
// ranges are omitted; the result is nil when n == 0.
func Ranges(n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	if n <= 0 {
		return nil
	}
	out := make([][2]int, 0, parts)
	q, r := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + q
		if i < r {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// For splits [0, n) into up to workers contiguous ranges and runs
// fn(part, lo, hi) for each concurrently, returning when all are done.
// With workers <= 1 (or a single range) fn runs inline on the caller's
// goroutine. part is the dense index of the range (0-based), usable to
// index per-worker output slots without synchronization.
func For(workers, n int, fn func(part, lo, hi int)) {
	rs := Ranges(n, workers)
	if len(rs) == 0 {
		return
	}
	if len(rs) == 1 {
		fn(0, rs[0][0], rs[0][1])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(rs) - 1)
	for i := 1; i < len(rs); i++ {
		go func(part int) {
			defer wg.Done()
			fn(part, rs[part][0], rs[part][1])
		}(i)
	}
	fn(0, rs[0][0], rs[0][1]) // caller participates as worker 0
	wg.Wait()
}
