// Package sim is the in-process backend of the machine abstraction: the
// p virtual processors of a region run as goroutines inside one OS
// process and exchange collective contributions through shared slot
// arrays, so every rank sees peers' posted headers directly and the only
// cost is the modeled α–β–γ charge. This is the simulator the paper-level
// differential tests and plan searches run on — deterministic, free of
// real communication, and bit-identical across runs.
package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
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
	timeout time.Duration
}

// New creates a machine with p processors.
func New(p int) *Machine {
	if p < 1 {
		panic("machine: need at least one processor")
	}
	return &Machine{p: p, timeout: 2 * time.Minute}
}

// Size returns the number of simulated processors.
func (m *Machine) Size() int { return m.p }

// SetTimeout replaces the per-barrier watchdog; 0 disables it.
func (m *Machine) SetTimeout(d time.Duration) { m.timeout = d }

// region is the state the ranks of one Run share besides their
// communicators: the context its first cause ends, and the watchdog timers
// of the ranks that had to park.
type region struct {
	timeout time.Duration
	timers  []*time.Timer // by world rank; made by a rank's first park, reused after

	ctx  context.Context // cancelled with the region's first cause
	done <-chan struct{} // ctx.Done(), fetched once: what every wait selects on
}

// Run executes fn on every processor concurrently and reports critical-path
// statistics. The region's first cause — a panic, an Abort, a Proc.Fail,
// the watchdog — is returned as the error; the machine itself stays usable.
func (m *Machine) Run(fn func(p *machine.Proc)) (machine.RunStats, error) {
	ctx, end := context.WithCancelCause(context.Background())
	defer end(nil)
	rg := &region{timeout: m.timeout, timers: make([]*time.Timer, m.p), ctx: ctx, done: ctx.Done()}
	world := newCommState(rg, m.p)
	procs := make([]*machine.Proc, m.p)
	var wg sync.WaitGroup
	start := time.Now() //lint:allow detsource wall-clock run stat only; never feeds the cost model
	for r := 0; r < m.p; r++ {
		p := machine.NewProc(world, r, m.p, end, start)
		procs[r] = p
		wg.Add(1)
		go func(p *machine.Proc) {
			defer wg.Done()
			machine.RunRank(p, fn)
		}(p)
	}
	wg.Wait()
	summaries := make([]machine.ProcSummary, m.p)
	for r, p := range procs {
		summaries[r] = p.Summary()
	}
	return machine.BuildRunStats(summaries, time.Since(start)), context.Cause(ctx)
}

// commState is the shared slot array of one communicator: every member
// posts its header into its rank's slot, the barrier releases, and members
// read peers' headers directly. It implements machine.Group.
type commState struct {
	region *region
	size   int
	posts  []machine.Codec
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
		posts:  make([]machine.Codec, size),
		sizes:  make([]int64, size),
		costs:  make([]machine.Cost, size),
		bar:    barrier{n: uint64(size)},
	}
}

// Size returns the number of group members.
func (st *commState) Size() int { return st.size }

// Exchange opens one BSP superstep over the shared slots: post, barrier,
// group-max. Posted headers are delivered to peers verbatim (shared
// memory). A one-member communicator has no peer to wait for.
func (st *commState) Exchange(p *machine.Proc, rank int, post machine.Payload) ([]machine.Codec, []int64, machine.Cost) {
	st.posts[rank] = post.Codec
	st.sizes[rank] = post.Size
	if st.size == 1 {
		return st.posts, st.sizes, p.Cost()
	}
	st.costs[rank] = p.Cost()
	st.bar.await(st.region, p.Rank())
	group := machine.Cost{}
	for _, pc := range st.costs {
		group = group.Max(pc)
	}
	return st.posts, st.sizes, group
}

// Release closes the superstep with a second barrier. It protects more
// than slot reuse: readers copy out of the poster's own storage, which the
// poster is free to overwrite as soon as its collective returns.
func (st *commState) Release(p *machine.Proc, rank int) {
	if st.size > 1 {
		st.bar.await(st.region, p.Rank())
	}
}

// Subgroup returns the shared state of the communicator over members.
// States are memoized per member list: every member of the new
// communicator asks for the identical list, the first caller allocates,
// and a later communicator over the same members (another grid's line)
// reuses the state — safe because the SPMD program order keeps all members
// of a communicator on the same collective sequence. No member waits for
// another here: one that arrives late finds the state its peers may
// already be posting into.
func (st *commState) Subgroup(members []int, _ int) machine.Group {
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
		select {
		case <-rg.done:
			machine.Abort(context.Cause(rg.ctx))
		default:
		}
		runtime.Gosched()
	}
	b.parkUntilReleased(gen, rg, worldRank)
}

// parkUntilReleased sleeps until generation gen is released, the region
// ends or the watchdog fires. A channel taken from b.park is closed by
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
		case <-rg.done:
			machine.Abort(context.Cause(rg.ctx))
		case <-watchdog:
			machine.Abort(fmt.Errorf("machine: barrier timeout after %v (collective deadlock: mismatched collective calls across ranks?)", rg.timeout))
		}
	}
}
