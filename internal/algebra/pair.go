// The pair semiring: every element carries an independent Old and New
// component, one per side of an incremental graph update. A single fused
// sweep over pair values computes the pre-batch and post-batch dependency
// contributions simultaneously — both sides ride the same supersteps, so
// the latency term of the §5.1 cost model is paid once instead of twice.
//
// All pair operations act componentwise and the component identities are
// exact absorbing/neutral elements (∞ weights, zero multiplicities), so a
// component that is dead on one side folds as an exact no-op: the live
// component's floating-point operation sequence is bit-identical to the
// sequence a scalar sweep over that side alone would execute (given the
// same decomposition plan). core's fused incremental path relies on this.
//
// Sided is how core's one distributed sweep reads and writes components:
// a scalar value is its own single side, a pair has sides 0 (Old) and 1
// (New), and the sweep's per-entry rules loop over Sides().
package algebra

import "math"

// Sided is the constraint on the entry values of the distributed sweep: T
// carries Sides() independent components of type E (a count that is a
// property of the type, not of the value), read with Side and replaced
// with WithSide. MultPath and CentPath are one-sided over themselves;
// MultPathPair and CentPathPair are two-sided over them.
type Sided[T, E any] interface {
	Sides() int
	Side(s int) E
	WithSide(s int, e E) T
}

func (MultPath) Sides() int                          { return 1 }
func (x MultPath) Side(int) MultPath                 { return x }
func (MultPath) WithSide(_ int, e MultPath) MultPath { return e }

func (CentPath) Sides() int                          { return 1 }
func (x CentPath) Side(int) CentPath                 { return x }
func (CentPath) WithSide(_ int, e CentPath) CentPath { return e }

// WeightPair is one edge of the fused old/new adjacency operand: the edge
// weight on each side, with Inf marking absence on that side.
type WeightPair struct {
	Old, New Weight
}

// MultPathPair carries a multpath per side.
type MultPathPair struct {
	Old, New MultPath
}

func (MultPathPair) Sides() int { return 2 }

func (x MultPathPair) Side(s int) MultPath {
	if s == 0 {
		return x.Old
	}
	return x.New
}

func (x MultPathPair) WithSide(s int, e MultPath) MultPathPair {
	if s == 0 {
		x.Old = e
	} else {
		x.New = e
	}
	return x
}

// MultPathPairZero is the identity of the pair ⊕: no path on either side.
func MultPathPairZero() MultPathPair {
	return MultPathPair{Old: MultPathZero(), New: MultPathZero()}
}

// multPathPairIsZero reports that neither side carries path information.
func multPathPairIsZero(x MultPathPair) bool {
	return MultPathIsZero(x.Old) && MultPathIsZero(x.New)
}

// MultPathPairMonoid is the componentwise multpath monoid. An entry is
// sparse-droppable only when both sides are zero, so entries live on one
// side survive with an exact identity in the other component.
func MultPathPairMonoid() Monoid[MultPathPair] {
	return Monoid[MultPathPair]{
		Identity: MultPathPairZero(),
		Op: func(x, y MultPathPair) MultPathPair {
			return MultPathPair{Old: multPathPlus(x.Old, y.Old), New: multPathPlus(x.New, y.New)}
		},
		IsZero: multPathPairIsZero,
	}
}

// BFActionPair appends one pair edge to a pair path componentwise. A side
// where either operand is absent yields that side's exact zero.
func BFActionPair(a MultPathPair, w WeightPair) MultPathPair {
	return MultPathPair{Old: bfSide(a.Old, w.Old), New: bfSide(a.New, w.New)}
}

// bfSide is BFAction normalized so a dead result is the exact component
// zero: an ∞-weight result must not retain a multiplicity that a later
// ∞-weight tie could sum into a live-looking value.
func bfSide(a MultPath, w Weight) MultPath {
	out := BFAction(a, w)
	if MultPathIsZero(out) {
		return MultPathZero()
	}
	return out
}

// CentPathPair carries a centpath per side.
type CentPathPair struct {
	Old, New CentPath
}

func (CentPathPair) Sides() int { return 2 }

func (x CentPathPair) Side(s int) CentPath {
	if s == 0 {
		return x.Old
	}
	return x.New
}

func (x CentPathPair) WithSide(s int, e CentPath) CentPathPair {
	if s == 0 {
		x.Old = e
	} else {
		x.New = e
	}
	return x
}

// CentPathPairZero is the identity of the pair ⊗.
func CentPathPairZero() CentPathPair {
	return CentPathPair{Old: CentPathZero(), New: CentPathZero()}
}

// centPathPairIsZero reports that neither side carries centrality
// information.
func centPathPairIsZero(x CentPathPair) bool {
	return CentPathIsZero(x.Old) && CentPathIsZero(x.New)
}

// CentPathPairMonoid is the componentwise centpath monoid.
func CentPathPairMonoid() Monoid[CentPathPair] {
	return Monoid[CentPathPair]{
		Identity: CentPathPairZero(),
		Op: func(x, y CentPathPair) CentPathPair {
			return CentPathPair{Old: CentPathTimes(x.Old, y.Old), New: CentPathTimes(x.New, y.New)}
		},
		IsZero: centPathPairIsZero,
	}
}

// BrandesActionPair back-propagates a pair centrality factor across one
// pair edge componentwise. A side with an absent edge (∞ weight) drops to
// −∞ and is screened as zero; a dead side stays dead (−∞ − w = −∞).
func BrandesActionPair(a CentPathPair, w WeightPair) CentPathPair {
	return CentPathPair{Old: brandesSide(a.Old, w.Old), New: brandesSide(a.New, w.New)}
}

// brandesSide is BrandesAction with absent-edge screening: subtracting an
// ∞ edge weight from a finite path weight would produce −∞ with a live P
// component, which CentPathIsZero would classify as zero but whose P could
// still leak through a later tie; map it to the exact component zero.
func brandesSide(a CentPath, w Weight) CentPath {
	if CentPathIsZero(a) || math.IsInf(w, 1) {
		return CentPathZero()
	}
	return BrandesAction(a, w)
}
