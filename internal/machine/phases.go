package machine

// Canonical phase names. Proc.Phase attributes per-phase cost that is
// joined across reports, benches, and the PATCH response by *name*, so the
// set of names is a closed registry: a region that invented its own
// spelling ("Sweep", "sweeping", …) would silently fork the attribution
// key space and break every cross-report join. The mfbc-lint phasenames
// analyzer mechanically enforces that every Proc.Phase call site passes a
// string constant drawn from this registry (test files are exempt — phase
// bookkeeping tests deliberately use off-registry names).
//
// Grow the registry here, in one place, when a new region phase is born.
const (
	// PhaseStage: staging an operand onto the machine (redistribution,
	// fiber replication) ahead of the multiply supersteps.
	PhaseStage = "stage"
	// PhaseDiff: delivering an apply's edge diff to every rank (the source
	// route's scatter from rank 0).
	PhaseDiff = "diff"
	// PhasePatch: the source route's charges for the replicated adjacency
	// each rank sweeps over — its staging in a session's first region, and
	// after that the splice of every edit into it.
	PhasePatch = "patch"
	// PhaseSweep: the forward Bellman-Ford / Brandes back-propagation
	// supersteps, the multiply-heavy body of a region.
	PhaseSweep = "sweep"
	// PhaseReduce: folding per-rank partial results into the final
	// centrality contributions.
	PhaseReduce = "reduce"
)

// CanonicalPhases lists the registry in declaration order. The returned
// slice is fresh on every call; callers may sort or mutate it.
func CanonicalPhases() []string {
	return []string{PhaseStage, PhaseDiff, PhasePatch, PhaseSweep, PhaseReduce}
}

// IsCanonicalPhase reports whether name is in the phase registry.
func IsCanonicalPhase(name string) bool {
	switch name {
	case PhaseStage, PhaseDiff, PhasePatch, PhaseSweep, PhaseReduce:
		return true
	}
	return false
}
