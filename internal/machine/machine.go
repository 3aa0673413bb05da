// Package machine defines the distributed-memory machine abstraction of
// the paper: p processors communicating exclusively through
// bulk-synchronous collectives (broadcast, reduce, allreduce, gather,
// allgather, scatter, all-to-all, and sparse reductions), the same
// collective set the paper's §5.1 cost model covers.
//
// The package itself is backend-neutral: the collectives are written
// against the Group interface (one BSP superstep per collective), and a
// Transport runs SPMD regions over some concrete backend. Two backends
// exist: machine/sim simulates all p ranks as goroutines inside one
// process (modeled cost only), and machine/tcpnet runs rank-per-process
// over real TCP sockets (modeled cost plus measured wall clock).
//
// Every collective moves real data (callers never alias each other's
// buffers) and charges an α–β model cost to each participant's critical
// path, following the paper's measurement methodology (§7.4): "for each
// collective over a set of processors, we maximize the critical path costs
// incurred by those processors so far", then add the collective's own cost.
// Broadcast and reduce of x bytes over p processors cost 2xβ + 2⌈log₂p⌉α
// (twice scatter/allgather), matching the Table-3 model.
package machine

import (
	"fmt"
	"math/bits"
	"time"
)

// CostModel holds the machine constants of the α–β–γ model.
type CostModel struct {
	Alpha float64 // seconds per message on the critical path
	Beta  float64 // seconds per byte
	Gamma float64 // seconds per scalar operation (generalized flop)
}

// DefaultModel approximates the paper's Cray Gemini interconnect and a
// node-level effective rate for sparse monoid operations.
func DefaultModel() CostModel {
	return CostModel{
		Alpha: 1.5e-6,      // ~1.5 µs per message
		Beta:  1.0 / 5.8e9, // ~5.8 GB/s injection bandwidth
		Gamma: 2.0e-9,      // ~0.5 Gop/s effective on sparse monoid kernels
	}
}

// Cost is a critical-path cost vector.
type Cost struct {
	Bytes int64 // words communicated (in bytes) along the critical path
	Msgs  int64 // messages (latency units) along the critical path
	Flops int64 // generalized operations along the critical path
}

// Add returns c + o componentwise.
func (c Cost) Add(o Cost) Cost {
	return Cost{Bytes: c.Bytes + o.Bytes, Msgs: c.Msgs + o.Msgs, Flops: c.Flops + o.Flops}
}

// Sub returns c − o componentwise (the cost accrued since the mark o).
func (c Cost) Sub(o Cost) Cost {
	return Cost{Bytes: c.Bytes - o.Bytes, Msgs: c.Msgs - o.Msgs, Flops: c.Flops - o.Flops}
}

// Max returns the componentwise maximum, the critical-path join.
func (c Cost) Max(o Cost) Cost {
	if o.Bytes > c.Bytes {
		c.Bytes = o.Bytes
	}
	if o.Msgs > c.Msgs {
		c.Msgs = o.Msgs
	}
	if o.Flops > c.Flops {
		c.Flops = o.Flops
	}
	return c
}

// Time converts the cost vector to modeled seconds.
func (c Cost) Time(m CostModel) float64 {
	return float64(c.Msgs)*m.Alpha + float64(c.Bytes)*m.Beta + float64(c.Flops)*m.Gamma
}

// CommTime converts only the communication components to modeled seconds.
func (c Cost) CommTime(m CostModel) float64 {
	return float64(c.Msgs)*m.Alpha + float64(c.Bytes)*m.Beta
}

func (c Cost) String() string {
	return fmt.Sprintf("{bytes=%d msgs=%d flops=%d}", c.Bytes, c.Msgs, c.Flops)
}

// Transport is one concrete machine backend: it knows the world size,
// owns the cost model and the collective watchdog timeout, and executes
// SPMD regions. The simulated backend (machine/sim) runs fn on every rank
// as a goroutine; the TCP backend (machine/tcpnet) runs fn only on the
// ranks hosted by this OS process, synchronizing with its peers over
// sockets. Either way the returned RunStats are identical on every
// participating process.
type Transport interface {
	// Size returns the world size p.
	Size() int
	// Model returns the α–β–γ constants charged by this transport.
	Model() CostModel
	// SetModel replaces the cost model (before a region, not during).
	SetModel(CostModel)
	// SetTimeout replaces the per-collective watchdog; 0 disables.
	SetTimeout(time.Duration)
	// Run executes fn as one machine region and reports critical-path
	// statistics. A panic or failure on any rank aborts the whole machine
	// and is returned as an error on every process.
	Run(fn func(p *Proc)) (RunStats, error)
}

// Payload is one rank's contribution to a collective superstep. The
// simulated backend delivers V to peers directly (shared memory, zero
// copies beyond what the collective itself makes); a network backend
// instead calls Enc once per destination and Dec once per arrived frame.
type Payload struct {
	// V is the posted value, delivered verbatim into peer slot arrays by
	// in-process backends.
	V any
	// Size is the element count posted (for nested [][]T posts, the total
	// across parts). Backends expose every rank's Size to the read
	// callback so charge formulas need no peer data.
	Size int64
	// Enc encodes the part of the payload destined for rank dst, or
	// returns nil when dst needs no data from us (the frame then carries
	// cost bookkeeping only). nil Enc means no rank needs our data.
	Enc func(dst int) []byte
	// Dec decodes a frame from rank src into the value placed in the
	// receiver's slot array. Required whenever any peer's Enc may address
	// this rank.
	Dec func(src int, b []byte) any
}

// Group is one communicator's backend state: the set of ranks that move
// through collective supersteps together. Comm wraps a Group with the
// caller's rank; the collectives in this package are written against
// Step, so any Group implementation gets the full collective set.
type Group interface {
	// Size returns the number of group members.
	Size() int
	// Step runs one BSP superstep: every member posts its contribution
	// and its current critical-path cost, read consumes peer
	// contributions (slots indexed by group rank; sizes holds every
	// member's posted Payload.Size), and the returned Cost is the group
	// maximum of the members' pre-step costs — the critical-path join of
	// §7.4. The collective then assigns p's cost itself. Slot entries for
	// ranks whose data was not addressed to this member may be nil on
	// network backends; collectives only read the slots their charge
	// formulas promise are present.
	Step(p *Proc, rank int, post Payload, read func(slots []any, sizes []int64)) Cost
	// Subgroup derives the communicator state for a Split: members holds
	// the parent-group ranks of the new group in new-rank order, and
	// myIdx is this member's position in it. Every member of the new
	// group calls Subgroup with the identical members slice.
	Subgroup(p *Proc, rank int, members []int, myIdx int) Group
}

// abortError marks the panic that unwinds ranks after a peer failure or
// watchdog timeout, so backends can tell cooperative teardown from a real
// region panic.
type abortError struct{ reason string }

func (e abortError) Error() string { return "machine: aborted: " + e.reason }

// Abort panics with the cooperative-teardown marker. Backends call it to
// unwind a rank after recording the underlying failure via the Proc's
// fail hook.
func Abort(reason string) {
	panic(abortError{reason: reason})
}

// AbortErr reports whether a recovered panic value is the cooperative
// teardown marker, returning it as an error when so.
func AbortErr(r any) (error, bool) {
	if e, ok := r.(abortError); ok {
		return e, true
	}
	return nil, false
}

// RunStats aggregates a run's outcome.
type RunStats struct {
	MaxCost  Cost          // componentwise max over processors (critical path)
	PerProc  []Cost        // final cost vector of each processor
	Wall     time.Duration // host wall-clock time of the region
	ModelSec float64       // MaxCost.Time(model)
	CommSec  float64       // MaxCost.CommTime(model)
	// Phases attributes the region's cost to the named phases the region
	// body declared with Proc.Phase, in first-declaration order. Empty when
	// the body never called Phase. Per processor, the phase costs sum
	// exactly to the processor's PerProc total.
	Phases []PhaseStats
}

// PhaseStats is one named phase's share of a region's cost.
type PhaseStats struct {
	Name     string
	MaxCost  Cost   // componentwise max over processors within this phase
	PerProc  []Cost // this phase's cost on each processor
	ModelSec float64
	CommSec  float64
	// Wall is the measured host wall-clock spent in this phase, maximized
	// over processors (phases overlap in time across ranks, so the per-phase
	// walls do not sum to RunStats.Wall). It is observability-only: modeled
	// cost never depends on it.
	Wall time.Duration
}

// ProcSummary is one rank's contribution to a region's RunStats: its
// final cost vector and closed phase buckets. It is flat and
// gob-encodable so network backends can exchange summaries and build
// identical RunStats on every process.
type ProcSummary struct {
	Cost      Cost
	PhaseSeq  []string
	PhaseCost []Cost
	PhaseWall []time.Duration
}

// Phase attributes all cost accrued from this call until the next Phase
// call (or the end of the region) to the named phase. A region that never
// calls Phase reports no phase breakdown; one that does should name its
// first phase before any collective so every cost lands in a named bucket
// (unattributed cost is reported under ""). Phases may repeat: re-entering
// a name accumulates into the same bucket. Phase sequences may differ
// across processors (it is rank-local bookkeeping, not a collective).
func (p *Proc) Phase(name string) {
	if name == p.phaseName {
		return
	}
	p.closePhase()
	p.phaseName = name
	p.phaseMark = p.cost
}

// closePhase folds the open segment into its named bucket.
func (p *Proc) closePhase() {
	seg := p.cost.Sub(p.phaseMark)
	now := time.Now() //lint:allow detsource wall-clock phase stat only; never feeds the cost model
	var wallSeg time.Duration
	if !p.phaseWallAt.IsZero() {
		wallSeg = now.Sub(p.phaseWallAt)
	}
	p.phaseWallAt = now
	if p.phaseName == "" && seg == (Cost{}) && len(p.phaseSeq) == 0 {
		return // nothing attributed and no phases declared
	}
	for i, n := range p.phaseSeq {
		if n == p.phaseName {
			p.phaseCost[i] = p.phaseCost[i].Add(seg)
			p.phaseWall[i] += wallSeg
			return
		}
	}
	p.phaseSeq = append(p.phaseSeq, p.phaseName)
	p.phaseCost = append(p.phaseCost, seg)
	p.phaseWall = append(p.phaseWall, wallSeg)
}

// Summary closes the open phase segment and returns the rank's region
// summary. Backends call it once per hosted rank after the region body
// returns.
func (p *Proc) Summary() ProcSummary {
	p.closePhase()
	return ProcSummary{
		Cost:      p.cost,
		PhaseSeq:  p.phaseSeq,
		PhaseCost: p.phaseCost,
		PhaseWall: p.phaseWall,
	}
}

// phaseStats merges the per-proc phase buckets into the run's breakdown:
// names ordered by first declaration scanning ranks in order, costs joined
// componentwise. Returns nil when no processor declared a phase.
func phaseStats(model CostModel, procs []ProcSummary) []PhaseStats {
	named := false
	for _, p := range procs {
		if len(p.PhaseSeq) > 1 || (len(p.PhaseSeq) == 1 && p.PhaseSeq[0] != "") {
			named = true
			break
		}
	}
	if !named {
		return nil
	}
	var order []string
	index := make(map[string]int)
	for _, p := range procs {
		for _, n := range p.PhaseSeq {
			if _, ok := index[n]; !ok {
				index[n] = len(order)
				order = append(order, n)
			}
		}
	}
	out := make([]PhaseStats, len(order))
	for i, n := range order {
		ps := PhaseStats{Name: n, PerProc: make([]Cost, len(procs))}
		for r, p := range procs {
			for k, pn := range p.PhaseSeq {
				if pn == n {
					ps.PerProc[r] = p.PhaseCost[k]
					ps.MaxCost = ps.MaxCost.Max(p.PhaseCost[k])
					if p.PhaseWall[k] > ps.Wall {
						ps.Wall = p.PhaseWall[k]
					}
				}
			}
		}
		ps.ModelSec = ps.MaxCost.Time(model)
		ps.CommSec = ps.MaxCost.CommTime(model)
		out[i] = ps
	}
	return out
}

// BuildRunStats folds every rank's ProcSummary into the region's
// RunStats. Deterministic in its inputs, so backends that exchange
// summaries build bit-identical stats on every process.
func BuildRunStats(model CostModel, procs []ProcSummary, wall time.Duration) RunStats {
	stats := RunStats{Wall: wall, PerProc: make([]Cost, len(procs))}
	for r, p := range procs {
		stats.PerProc[r] = p.Cost
		stats.MaxCost = stats.MaxCost.Max(p.Cost)
	}
	stats.Phases = phaseStats(model, procs)
	stats.ModelSec = stats.MaxCost.Time(model)
	stats.CommSec = stats.MaxCost.CommTime(model)
	return stats
}

// Proc is one processor's handle within a machine region.
type Proc struct {
	rank       int
	localRanks int
	world      *Comm
	cost       Cost
	fail       func(error)

	// Phase-attribution bookkeeping: the open segment's name, the cost
	// vector and wall instant at its start, plus the closed buckets in
	// declaration order (phaseCost and phaseWall parallel phaseSeq).
	phaseName   string
	phaseMark   Cost
	phaseWallAt time.Time
	phaseSeq    []string
	phaseCost   []Cost
	phaseWall   []time.Duration
}

// NewProc constructs a rank handle for a backend: world is the
// whole-machine Group, localRanks the number of ranks this OS process
// hosts (sim: p, tcpnet: 1), fail the backend's first-failure hook, and
// start the region's wall-clock origin for phase attribution.
func NewProc(world Group, rank, localRanks int, fail func(error), start time.Time) *Proc {
	p := &Proc{rank: rank, localRanks: localRanks, fail: fail, phaseWallAt: start}
	p.world = &Comm{group: world, rank: rank, proc: p}
	return p
}

// Rank returns the processor's world rank.
func (p *Proc) Rank() int { return p.rank }

// World returns the communicator spanning all processors.
func (p *Proc) World() *Comm { return p.world }

// LocalRanks returns how many ranks of this machine live in the current
// OS process — the divisor for splitting host cores among rank-local
// kernel workers (sim: the whole world shares the host; tcpnet: each
// rank owns its process).
func (p *Proc) LocalRanks() int {
	if p.localRanks < 1 {
		return 1
	}
	return p.localRanks
}

// Fail records err as the machine's failure through the backend hook,
// poisoning every barrier so peers unwind instead of deadlocking. It does
// not panic; callers follow with Abort.
func (p *Proc) Fail(err error) {
	if p.fail != nil {
		p.fail(err)
	}
}

// AddFlops charges local computation to the critical path.
func (p *Proc) AddFlops(n int64) { p.cost.Flops += n }

// Cost returns the processor's critical-path cost so far.
func (p *Proc) Cost() Cost { return p.cost }

// Comm is a communicator: one processor's view of a process group.
type Comm struct {
	group Group
	rank  int
	proc  *Proc
}

// Rank returns this processor's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Proc returns the owning processor handle.
func (c *Comm) Proc() *Proc { return c.proc }

// Size returns the number of group members.
func (c *Comm) Size() int { return c.group.Size() }

// LogMsgs is the ⌈log₂ p⌉ latency term of tree-based collectives, in
// integer arithmetic: the plan search evaluates it three times per
// candidate.
func LogMsgs(p int) int64 {
	if p <= 1 {
		return 0
	}
	return int64(bits.Len(uint(p - 1)))
}
