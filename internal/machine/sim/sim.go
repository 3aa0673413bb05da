// Package sim is the in-process backend of the machine abstraction: the
// p virtual processors of a region run as goroutines inside one OS
// process and exchange collective contributions through shared slot
// arrays, so every rank sees peers' posted values directly and the only
// cost is the modeled α–β–γ charge. This is the simulator the paper-level
// differential tests and plan searches run on — deterministic, free of
// real communication, and bit-identical across runs.
package sim

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
)

// Machine is a simulated distributed machine of p processors. It
// implements machine.Transport. It holds configuration only: everything a
// region shares between its ranks, failure state included, lives in the
// region, so a Machine is reusable after a region that failed.
type Machine struct {
	p       int
	model   machine.CostModel
	timeout time.Duration
}

// New creates a machine with p processors and the default cost model.
func New(p int) *Machine {
	if p < 1 {
		panic("machine: need at least one processor")
	}
	return &Machine{p: p, model: machine.DefaultModel(), timeout: 2 * time.Minute}
}

// Size returns the number of simulated processors.
func (m *Machine) Size() int { return m.p }

// Model returns the machine's α–β–γ constants.
func (m *Machine) Model() machine.CostModel { return m.model }

// SetModel replaces the cost model.
func (m *Machine) SetModel(model machine.CostModel) { m.model = model }

// SetTimeout replaces the per-barrier watchdog; 0 disables it.
func (m *Machine) SetTimeout(d time.Duration) { m.timeout = d }

// region is the state the ranks of one Run share besides their
// communicators: the failure that frees waiting ranks and the watchdog
// timers of the ranks that had to park.
type region struct {
	timeout time.Duration
	timers  []*time.Timer // by world rank; made by a rank's first park, reused after

	failure atomic.Pointer[error] // the first one; polled by yielding waiters
	abort   chan struct{}         // closed with it, for parked waiters
}

// fail records the first failure and poisons every barrier so that all
// processors unwind instead of deadlocking.
func (rg *region) fail(err error) {
	if rg.failure.CompareAndSwap(nil, &err) {
		close(rg.abort)
	}
}

// Run executes fn on every processor concurrently and reports critical-path
// statistics. A panic on any processor aborts the region and is returned as
// an error; the machine itself stays usable.
func (m *Machine) Run(fn func(p *machine.Proc)) (machine.RunStats, error) {
	rg := &region{timeout: m.timeout, timers: make([]*time.Timer, m.p), abort: make(chan struct{})}
	world := newCommState(rg, m.p)
	procs := make([]*machine.Proc, m.p)
	var wg sync.WaitGroup
	start := time.Now() //lint:allow detsource wall-clock run stat only; never feeds the cost model
	fail := rg.fail
	for r := 0; r < m.p; r++ {
		p := machine.NewProc(world, r, m.p, fail, start)
		procs[r] = p
		wg.Add(1)
		go func(p *machine.Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if ab, ok := machine.AbortErr(r); ok {
						rg.fail(ab)
						return
					}
					rg.fail(fmt.Errorf("machine: proc %d panicked: %v\n%s", p.Rank(), r, debug.Stack()))
				}
			}()
			fn(p)
		}(p)
	}
	wg.Wait()
	summaries := make([]machine.ProcSummary, m.p)
	for r, p := range procs {
		summaries[r] = p.Summary()
	}
	stats := machine.BuildRunStats(m.model, summaries, time.Since(start))
	if err := rg.failure.Load(); err != nil {
		return stats, *err
	}
	return stats, nil
}

// commState is the shared slot array of one communicator: every member
// posts into its rank's slot, the barrier releases, and members read
// peers' values directly. It implements machine.Group.
type commState struct {
	region *region
	size   int
	slots  []any
	sizes  []int64
	costs  []machine.Cost
	bar    barrier

	subMu sync.Mutex
	subs  map[string]*commState
}

func newCommState(rg *region, size int) *commState {
	return &commState{
		region: rg,
		size:   size,
		slots:  make([]any, size),
		sizes:  make([]int64, size),
		costs:  make([]machine.Cost, size),
		bar:    barrier{n: uint64(size)},
	}
}

// Size returns the number of group members.
func (st *commState) Size() int { return st.size }

// Step runs one BSP superstep over the shared slots: post, barrier, read,
// group-max, and a second barrier. Posted values are delivered to peers
// verbatim (shared memory). The second barrier protects more than slot
// reuse: read callbacks copy out of the poster's own slice, which the
// poster is free to overwrite as soon as its collective returns. A
// one-member communicator has no peer to wait for and runs read directly.
func (st *commState) Step(p *machine.Proc, rank int, post machine.Payload, read func(slots []any, sizes []int64)) machine.Cost {
	st.slots[rank] = post.V
	st.sizes[rank] = post.Size
	if st.size == 1 {
		read(st.slots, st.sizes)
		return p.Cost()
	}
	st.costs[rank] = p.Cost()
	st.bar.await(st.region, p.Rank())
	read(st.slots, st.sizes)
	group := machine.Cost{}
	for _, pc := range st.costs {
		group = group.Max(pc)
	}
	st.bar.await(st.region, p.Rank())
	return group
}

// Subgroup returns the shared state for a split-derived communicator.
// States are memoized per member list: every member of the new group asks
// for the identical list, the first caller allocates, and later splits
// that produce the same grouping reuse the state — safe because the SPMD
// program order keeps all members of a communicator on the same
// collective sequence.
func (st *commState) Subgroup(p *machine.Proc, rank int, members []int, myIdx int) machine.Group {
	// The member ranks, four bytes each, are the key: no formatting.
	raw := make([]byte, 0, 4*len(members))
	for _, m := range members {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(m))
	}
	key := string(raw)
	st.subMu.Lock()
	defer st.subMu.Unlock()
	if st.subs == nil {
		st.subs = make(map[string]*commState)
	}
	if g, ok := st.subs[key]; ok {
		return g
	}
	g := newCommState(st.region, len(members))
	st.subs[key] = g
	return g
}

// yieldBudget is how many times a waiter offers its P to other goroutines
// before it parks. The ranks of a region outnumber the host's cores, so
// the peers a waiter needs are usually runnable and a yield hands them the
// P at once, where a park idles it and the release pays a futex wake-up
// per waiter. Chosen by A/B on the 2-vCPU box (stream-road op_p50_ms at
// p=4, 8.4 ms with the mutex-and-timer barrier this replaced): 0 — park at
// once — 7.85 ms, 20 5.43, 200 4.82, 1000 4.77. Past 200 nothing is left to
// gain, and the budget is also what a waiter burns on a peer that is
// really slow: 200 yields are a few tens of microseconds.
const yieldBudget = 200

// barrier is a reusable barrier with abort and watchdog support, the
// synchronization backbone of every collective. Arrivals are counted over
// the barrier's whole life, so arrival k belongs to generation (k-1)/n and
// the n-th arrival of a generation releases it.
type barrier struct {
	n        uint64
	arrived  atomic.Uint64
	released atomic.Uint64                 // generations completed
	park     atomic.Pointer[chan struct{}] // made by the first waiter to park, closed by a releaser
}

func (b *barrier) await(rg *region, worldRank int) {
	k := b.arrived.Add(1)
	gen := (k - 1) / b.n
	if k%b.n == 0 {
		b.released.Store(gen + 1)
		if ch := b.park.Swap(nil); ch != nil {
			close(*ch)
		}
		return
	}
	for i := 0; i < yieldBudget; i++ {
		if b.released.Load() > gen {
			return
		}
		if rg.failure.Load() != nil {
			machine.Abort("peer failure")
		}
		runtime.Gosched()
	}
	b.parkUntilReleased(gen, rg, worldRank)
}

// parkUntilReleased sleeps until generation gen is released, the region
// fails or the watchdog fires. A channel taken from b.park is closed by
// whoever swaps it out, and the releaser of gen swaps after publishing the
// release, so a waiter that sees gen still open after taking a channel is
// woken. The waker may be the releaser of an earlier generation that was
// slow to reach its swap, hence the loop.
func (b *barrier) parkUntilReleased(gen uint64, rg *region, worldRank int) {
	var watchdog <-chan time.Time
	if rg.timeout > 0 {
		t := rg.timers[worldRank]
		if t == nil {
			t = time.NewTimer(rg.timeout)
			rg.timers[worldRank] = t
		} else {
			t.Reset(rg.timeout)
		}
		defer t.Stop()
		watchdog = t.C
	}
	for b.released.Load() <= gen {
		ch := b.park.Load()
		if ch == nil {
			fresh := make(chan struct{})
			if !b.park.CompareAndSwap(nil, &fresh) {
				continue
			}
			ch = &fresh
		}
		if b.released.Load() > gen {
			return
		}
		select {
		case <-*ch:
		case <-rg.abort:
			machine.Abort("peer failure")
		case <-watchdog:
			err := fmt.Errorf("machine: barrier timeout after %v (collective deadlock: mismatched collective calls across ranks?)", rg.timeout)
			rg.fail(err)
			machine.Abort(err.Error())
		}
	}
}
