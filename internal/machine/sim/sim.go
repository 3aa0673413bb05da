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
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/machine"
)

// Machine is a simulated distributed machine of p processors. It
// implements machine.Transport.
type Machine struct {
	p       int
	model   machine.CostModel
	timeout time.Duration

	abortOnce sync.Once
	abort     chan struct{}
	failMu    sync.Mutex
	failErr   error
}

// New creates a machine with p processors and the default cost model.
func New(p int) *Machine {
	if p < 1 {
		panic("machine: need at least one processor")
	}
	return &Machine{p: p, model: machine.DefaultModel(), timeout: 2 * time.Minute, abort: make(chan struct{})}
}

// Size returns the number of simulated processors.
func (m *Machine) Size() int { return m.p }

// Model returns the machine's α–β–γ constants.
func (m *Machine) Model() machine.CostModel { return m.model }

// SetModel replaces the cost model.
func (m *Machine) SetModel(model machine.CostModel) { m.model = model }

// SetTimeout replaces the per-barrier watchdog; 0 disables it.
func (m *Machine) SetTimeout(d time.Duration) { m.timeout = d }

// fail records the first failure and poisons every barrier so that all
// processors unwind instead of deadlocking.
func (m *Machine) fail(err error) {
	m.failMu.Lock()
	if m.failErr == nil {
		m.failErr = err
	}
	m.failMu.Unlock()
	m.abortOnce.Do(func() { close(m.abort) })
}

// Run executes fn on every processor concurrently and reports critical-path
// statistics. A panic on any processor aborts the whole machine and is
// returned as an error.
func (m *Machine) Run(fn func(p *machine.Proc)) (machine.RunStats, error) {
	world := newCommState(m, m.p)
	procs := make([]*machine.Proc, m.p)
	var wg sync.WaitGroup
	start := time.Now() //lint:allow detsource wall-clock run stat only; never feeds the cost model
	for r := 0; r < m.p; r++ {
		p := machine.NewProc(world, r, m.p, m.fail, start)
		procs[r] = p
		wg.Add(1)
		go func(p *machine.Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if ab, ok := machine.AbortErr(r); ok {
						m.fail(ab)
						return
					}
					m.fail(fmt.Errorf("machine: proc %d panicked: %v\n%s", p.Rank(), r, debug.Stack()))
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
	m.failMu.Lock()
	err := m.failErr
	m.failMu.Unlock()
	return stats, err
}

// commState is the shared slot array of one communicator: every member
// posts into its rank's slot, the sense-reversing barrier flips, and
// members read peers' values directly. It implements machine.Group.
type commState struct {
	machine *Machine
	size    int
	slots   []any
	sizes   []int64
	costs   []machine.Cost
	bar     *barrier

	subMu sync.Mutex
	subs  map[string]*commState
}

func newCommState(m *Machine, size int) *commState {
	return &commState{
		machine: m,
		size:    size,
		slots:   make([]any, size),
		sizes:   make([]int64, size),
		costs:   make([]machine.Cost, size),
		bar:     newBarrier(m, size),
	}
}

// Size returns the number of group members.
func (st *commState) Size() int { return st.size }

// Step runs one BSP superstep over the shared slots: post, barrier, read,
// group-max, and a second barrier protecting slot reuse. Posted values are
// delivered to peers verbatim (shared memory), so the collectives layer
// behaves exactly as the pre-refactor in-process machine did.
func (st *commState) Step(p *machine.Proc, rank int, post machine.Payload, read func(slots []any, sizes []int64)) machine.Cost {
	st.slots[rank] = post.V
	st.sizes[rank] = post.Size
	st.costs[rank] = p.Cost()
	st.bar.await()
	read(st.slots, st.sizes)
	group := machine.Cost{}
	for _, pc := range st.costs {
		group = group.Max(pc)
	}
	st.bar.await()
	return group
}

// Subgroup returns the shared state for a Split-derived communicator.
// States are memoized per member list: every member of the new group asks
// for the identical list, the first caller allocates, and later Splits
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
	g := newCommState(st.machine, len(members))
	st.subs[key] = g
	return g
}

// barrier is a reusable sense-reversing barrier with abort and watchdog
// support, the synchronization backbone of every collective.
type barrier struct {
	machine *Machine
	mu      sync.Mutex
	n       int
	count   int
	gen     chan struct{}
}

func newBarrier(m *Machine, n int) *barrier {
	return &barrier{machine: m, n: n, gen: make(chan struct{})}
}

func (b *barrier) await() {
	b.mu.Lock()
	ch := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen = make(chan struct{})
		close(ch)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	if b.machine.timeout <= 0 {
		select {
		case <-ch:
		case <-b.machine.abort:
			machine.Abort("peer failure")
		}
		return
	}
	timer := time.NewTimer(b.machine.timeout)
	defer timer.Stop()
	select {
	case <-ch:
	case <-b.machine.abort:
		machine.Abort("peer failure")
	case <-timer.C:
		err := fmt.Errorf("machine: barrier timeout after %v (collective deadlock: mismatched collective calls across ranks?)", b.machine.timeout)
		b.machine.fail(err)
		machine.Abort(err.Error())
	}
}
