package sparse

import (
	"math/bits"
	"slices"
)

// SPA is a sparse accumulator over the keys [0, n): a value slab indexed by
// key and, per lane, an occupancy bitset and the list of keys the lane has
// touched since its last drain. The first touch of a key stores its value
// in the slab, later touches fold into it, and a drain visits the touched
// keys in ascending order and clears them — so filling and draining cost
// O(touches + touched keys), never O(n), and what a drain emits comes out
// in key order without a sort. The storage is kept across drains: size it
// once and reuse it round after round.
//
// Several goroutines may fill one slab at once, each through its own lane,
// as long as no key is touched through two lanes between drains: a lane's
// bitset words are its own, so no lane writes another's occupancy.
type SPA[T any] struct {
	Val   []T
	lanes []Lane
}

// Lane is one writer's occupancy bitset and touched list over the keys of
// an SPA.
type Lane struct {
	occ     []uint64
	touched []int32
}

// Size readies the accumulator for keys [0, n) and lanes lanes, reusing its
// storage. Every lane must have been drained since its last touch. The slab
// is not cleared: a key's first touch writes its cell before anything reads
// it.
func (a *SPA[T]) Size(n, lanes int) {
	a.Val = slices.Grow(a.Val[:0], n)[:n]
	if len(a.lanes) < lanes {
		a.lanes = append(a.lanes, make([]Lane, lanes-len(a.lanes))...)
	}
	words := (n + 63) / 64
	for w := range a.lanes[:lanes] {
		// Drained words are zero, so words regained from the capacity are too.
		a.lanes[w].occ = slices.Grow(a.lanes[w].occ[:0], words)[:words]
	}
}

// Lane returns lane w, one of those the last Size readied.
func (a *SPA[T]) Lane(w int) *Lane { return &a.lanes[w] }

// Touch marks key k and reports whether it is the lane's first touch of k
// since its last drain.
func (l *Lane) Touch(k int32) bool {
	word, bit := &l.occ[k>>6], uint64(1)<<(uint(k)&63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	l.touched = append(l.touched, k)
	return true
}

// Drain returns the keys the lane touched since its last drain, ascending,
// and clears them. The slice is the lane's storage: it is valid until the
// lane's next Touch.
func (l *Lane) Drain() []int32 {
	t := DrainOrder(l.occ, l.touched)
	l.touched = t[:0]
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
