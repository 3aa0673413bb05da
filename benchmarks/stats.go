package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// calibrated rescales a raw time by how fast the calibrator ran next to
// it: a section timed while the box was 10% slow (calib 10% above ref) is
// reported 10% shorter. ref ≤ 0 (no reference recorded yet) returns raw.
func calibrated(raw, calib, ref float64) float64 {
	if ref <= 0 || calib <= 0 {
		return raw
	}
	return raw * ref / calib
}

// ratios returns num[i]/den[i] for the pairs where both are positive.
func ratios(num, den []float64) []float64 {
	out := make([]float64, 0, len(num))
	for i := range num {
		if i < len(den) && num[i] > 0 && den[i] > 0 {
			out = append(out, num[i]/den[i])
		}
	}
	return out
}

// closeEnough is the oracle comparison: relative 1e-9, absolute where the
// oracle is zero.
func closeEnough(got, want float64) bool {
	const tol = 1e-9
	if math.IsNaN(got) || math.IsInf(got, 0) {
		return false
	}
	d := math.Abs(got - want)
	if want == 0 { //lint:allow floateq an oracle score of exactly zero switches to the absolute test
		return d <= tol
	}
	return d <= tol*math.Abs(want)
}

// scoresMatch compares a score vector with the oracle's.
func scoresMatch(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !closeEnough(got[i], want[i]) {
			return false
		}
	}
	return true
}
