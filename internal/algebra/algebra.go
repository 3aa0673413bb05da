// Package algebra defines the algebraic structures used by the MFBC
// betweenness-centrality algorithms of Solomonik et al. (SC'17):
// commutative monoids, the multpath and centpath monoids, and the
// Bellman-Ford and Brandes monoid actions that parameterize the
// generalized sparse matrix product C = A •⟨⊕,f⟩ B.
package algebra

import "math"

// Inf is the additive identity of the tropical semiring: the weight of a
// nonexistent path.
var Inf = math.Inf(1)

// Weight is the path-weight domain W ⊂ R ∪ {∞}. Finite weights must be
// strictly positive for the MFBC algorithms to be correct (shortest walks
// revisiting a vertex must be strictly longer than the walk that skips the
// revisit).
type Weight = float64

// Monoid is a commutative monoid (S, Op) with an identity element and a
// sparsity predicate: IsZero reports whether an element is equivalent to the
// identity and may be dropped from a sparse data structure.
type Monoid[T any] struct {
	Identity T
	Op       func(T, T) T
	IsZero   func(T) bool
}

// MultPath is an element of the multpath monoid (M, ⊕): a path weight W
// together with the multiplicity M of distinct shortest paths achieving it.
// The multiplicity is held in a float64 (exact for counts below 2^53, the
// same representation CombBLAS uses) because shortest-path multiplicities
// grow multiplicatively.
type MultPath struct {
	W Weight
	M float64
}

// MultPathZero is the identity of ⊕: no path.
func MultPathZero() MultPath { return MultPath{W: Inf, M: 0} }

// multPathPlus is the ⊕ operator of the multpath monoid: the lower-weight
// operand wins; equal weights sum their multiplicities.
func multPathPlus(x, y MultPath) MultPath {
	switch {
	case x.W < y.W:
		return x
	case x.W > y.W:
		return y
	default:
		return MultPath{W: x.W, M: x.M + y.M}
	}
}

// MultPathIsZero reports whether x carries no path information.
func MultPathIsZero(x MultPath) bool { return math.IsInf(x.W, 1) || x.M == 0 }

// MultPathMonoid is the multpath monoid packaged for generic kernels.
func MultPathMonoid() Monoid[MultPath] {
	return Monoid[MultPath]{Identity: MultPathZero(), Op: multPathPlus, IsZero: MultPathIsZero}
}

// BFAction is the Bellman-Ford action f : M × W → M of the weight monoid
// (W,+) on multpaths: it appends one edge of weight w to the path a,
// preserving the multiplicity.
func BFAction(a MultPath, w Weight) MultPath { return MultPath{W: a.W + w, M: a.M} }

// CentPath is an element of the centpath monoid (C, ⊗): a path weight W, a
// partial centrality factor P (converging to ζ(s,v) = δ(s,v)/σ̄(s,v)), and a
// counter C tracking how many shortest-path-DAG children of the vertex have
// not yet reported their centrality.
type CentPath struct {
	W Weight
	P float64
	C int64
}

// CentPathZero is the identity of ⊗. Because ⊗ keeps the *higher*-weight
// operand (the paper's formal definition; its prose is inverted), the
// identity carries weight −∞.
func CentPathZero() CentPath { return CentPath{W: math.Inf(-1)} }

// centPathTimes is the ⊗ operator of the centpath monoid: the higher-weight
// operand wins; equal weights sum both the partial centrality factors and
// the counters. Keeping the higher weight is what screens out spurious
// back-propagation contributions, whose weights T(s,u).w − w(v,u) are
// strictly below T(s,v).w whenever (v,u) is not a shortest-path-DAG edge.
func centPathTimes(x, y CentPath) CentPath {
	switch {
	case x.W > y.W:
		return x
	case x.W < y.W:
		return y
	default:
		return CentPath{W: x.W, P: x.P + y.P, C: x.C + y.C}
	}
}

// CentPathIsZero reports whether x carries no centrality information.
func CentPathIsZero(x CentPath) bool { return math.IsInf(x.W, -1) }

// CentPathMonoid is the centpath monoid packaged for generic kernels.
func CentPathMonoid() Monoid[CentPath] {
	return Monoid[CentPath]{Identity: CentPathZero(), Op: centPathTimes, IsZero: CentPathIsZero}
}

// BrandesAction is the Brandes action g : C × W → C of the weight monoid
// (W,+) on centpaths: back-propagation of a centrality factor across one
// edge of weight w subtracts the edge weight, preserving factor and counter.
func BrandesAction(a CentPath, w Weight) CentPath {
	return CentPath{W: a.W - w, P: a.P, C: a.C}
}

// tropicalMin is the ⊕ of the tropical semiring (W, min, +), used by the
// adjacency matrix structure and by baseline shortest-path codes.
func tropicalMin(x, y Weight) Weight {
	if x < y {
		return x
	}
	return y
}

// TropicalMonoid is (W, min) with identity ∞.
func TropicalMonoid() Monoid[Weight] {
	return Monoid[Weight]{
		Identity: Inf,
		Op:       tropicalMin,
		IsZero:   func(w Weight) bool { return math.IsInf(w, 1) },
	}
}

// CountPlus is ordinary addition on float64 path counts with zero-identity,
// the monoid used by the CombBLAS-style BFS baseline.
func CountMonoid() Monoid[float64] {
	return Monoid[float64]{
		Identity: 0,
		Op:       func(x, y float64) float64 { return x + y },
		IsZero:   func(x float64) bool { return x == 0 },
	}
}
