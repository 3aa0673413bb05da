package sparse

import (
	"math/bits"
	"slices"
)

// SPA is a sparse accumulator over the keys [0, n): a value slab indexed by
// key, an occupancy bitset and the list of keys touched since the last
// drain. The first touch of a key stores its value in the slab, later
// touches fold into it, and a drain visits the touched keys in ascending
// order and clears them — so filling and draining cost O(touches + touched
// keys), never O(n), and what a drain emits comes out in key order without a
// sort. The storage is kept across drains: size it once and reuse it round
// after round. One goroutine fills an SPA at a time.
type SPA[T any] struct {
	Val     []T
	occ     []uint64
	touched []int32
}

// Size readies the accumulator for keys [0, n), reusing its storage. It
// must have been drained since its last touch. The slab is not cleared: a
// key's first touch writes its cell before anything reads it.
func (a *SPA[T]) Size(n int) {
	a.Val = slices.Grow(a.Val[:0], n)[:n]
	words := (n + 63) / 64
	// Drained words are zero, so words regained from the capacity are too.
	a.occ = slices.Grow(a.occ[:0], words)[:words]
}

// Touch marks key k and reports whether it is the first touch of k since
// the last drain.
func (a *SPA[T]) Touch(k int32) bool {
	word, bit := &a.occ[k>>6], uint64(1)<<(uint(k)&63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	a.touched = append(a.touched, k)
	return true
}

// Drain returns the keys touched since the last drain, ascending, and
// clears them. The slice is the accumulator's storage: it is valid until
// the next Touch.
func (a *SPA[T]) Drain() []int32 {
	t := DrainOrder(a.occ, a.touched)
	a.touched = t[:0]
	return t
}

// DrainOrder returns the keys in touched in ascending order, reusing its
// storage, and clears their bits in occ. A short list is sorted; once it is
// at least as long as the bitset has words (n/64 — a property of the
// product, not a setting), scanning the words costs no more than one step
// per touched key and replaces the sort.
func DrainOrder(occ []uint64, touched []int32) []int32 {
	if len(touched) < len(occ) {
		slices.Sort(touched)
		for _, k := range touched {
			occ[k>>6] = 0
		}
		return touched
	}
	t := touched[:0]
	for w, word := range occ {
		for ; word != 0; word &= word - 1 {
			t = append(t, int32(w<<6+bits.TrailingZeros64(word)))
		}
		occ[w] = 0
	}
	return t
}
