// The superstep engine: group implements machine.Group over the mesh,
// and Run drives one rank's region body plus the closing summary
// exchange that makes RunStats identical on every process.

package tcpnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/machine"
)

// group is one communicator's view of the mesh: the member world ranks
// in group-rank order. Subgroups are pure rank arithmetic — the split's
// bookkeeping allgather already agreed on the member list everywhere, so
// no extra communication is needed.
type group struct {
	t       *Transport
	members []int // world rank of each group rank
	myIdx   int   // this rank's group rank
}

func worldGroup(t *Transport) *group {
	members := make([]int, t.p)
	for i := range members {
		members[i] = i
	}
	return &group{t: t, members: members, myIdx: t.rank}
}

func (g *group) Size() int { return len(g.members) }

// Step runs one BSP superstep: send one frame to every other member
// (payload where Enc addresses that peer, cost-only otherwise), then
// collect one frame from each. Per-pair FIFO plus SPMD program order
// guarantees the collected frames belong to this superstep.
func (g *group) Step(p *machine.Proc, rank int, post machine.Payload, read func(slots []any, sizes []int64)) machine.Cost {
	n := len(g.members)
	slots := make([]any, n)
	sizes := make([]int64, n)
	own := p.Cost()
	slots[g.myIdx] = post.V
	sizes[g.myIdx] = post.Size
	for gi, wr := range g.members {
		if gi == g.myIdx {
			continue
		}
		var payload []byte
		if post.Enc != nil {
			payload = post.Enc(gi)
		}
		if err := g.t.sendData(wr, own, post.Size, payload); err != nil {
			p.Fail(err)
			machine.Abort("send failure")
		}
	}
	max := own
	for gi, wr := range g.members {
		if gi == g.myIdx {
			continue
		}
		df := g.t.recvData(p, wr)
		sizes[gi] = df.size
		max = max.Max(df.cost)
		if df.payload != nil && post.Dec != nil {
			slots[gi] = post.Dec(gi, df.payload)
		}
	}
	read(slots, sizes)
	return max
}

func (g *group) Subgroup(p *machine.Proc, rank int, members []int, myIdx int) machine.Group {
	world := make([]int, len(members))
	for i, m := range members {
		world[i] = g.members[m]
	}
	return &group{t: g.t, members: world, myIdx: myIdx}
}

// Run executes fn as this rank's part of one SPMD machine region. All
// ranks must call Run with the same program; the closing summary
// exchange then builds bit-identical RunStats everywhere (wall clock
// aside, which is measured per process).
//
// A failed run poisons the transport — peer streams may have died
// mid-frame — so callers rebuild the mesh rather than retry on it.
func (t *Transport) Run(fn func(p *machine.Proc)) (machine.RunStats, error) {
	if t.closed.Load() {
		return machine.RunStats{}, errClosed
	}
	if err := t.err(); err != nil {
		return machine.RunStats{}, fmt.Errorf("tcpnet: transport poisoned by earlier failure: %w", err)
	}
	start := time.Now()
	world := worldGroup(t)
	proc := machine.NewProc(world, t.rank, 1, t.fail, start)
	t.runBody(proc, fn)
	if err := t.err(); err != nil {
		return machine.RunStats{}, err
	}
	sums, ok := t.exchangeSummaries(world, proc)
	if !ok {
		return machine.RunStats{}, t.err()
	}
	return machine.BuildRunStats(t.model, sums, time.Since(start)), nil
}

func (t *Transport) runBody(proc *machine.Proc, fn func(p *machine.Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := machine.AbortErr(r); ok {
				t.fail(err)
				return
			}
			t.fail(fmt.Errorf("machine: proc %d panicked: %v\n%s", t.rank, r, debug.Stack()))
		}
	}()
	fn(proc)
}

// exchangeSummaries closes the rank's phase bookkeeping and runs one
// cost-free superstep carrying every rank's gob-encoded ProcSummary, so
// each process can fold the identical stats. The step's cost maximum is
// deliberately discarded: stats exchange is bookkeeping, not part of the
// modeled program.
func (t *Transport) exchangeSummaries(world *group, proc *machine.Proc) (sums []machine.ProcSummary, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, isAbort := machine.AbortErr(r); isAbort {
				t.fail(err)
				ok = false
				return
			}
			panic(r)
		}
	}()
	self := proc.Summary()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(self); err != nil {
		t.fail(fmt.Errorf("tcpnet: encoding rank %d summary: %w", t.rank, err))
		return nil, false
	}
	enc := buf.Bytes()
	out := make([]machine.ProcSummary, t.p)
	world.Step(proc, t.rank, machine.Payload{
		V:   self,
		Enc: func(int) []byte { return enc },
		Dec: func(src int, b []byte) any {
			var s machine.ProcSummary
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&s); err != nil {
				t.fail(fmt.Errorf("tcpnet: decoding rank %d summary: %w", src, err))
				machine.Abort("summary decode failure")
			}
			return s
		},
	}, func(slots []any, _ []int64) {
		for i := range slots {
			s, isSummary := slots[i].(machine.ProcSummary)
			if !isSummary {
				// A cost-only frame here means some rank ran a different
				// collective sequence (its frame was consumed elsewhere).
				t.fail(fmt.Errorf("machine: rank %d summary exchange desynchronized (mismatched collective calls across ranks?)", t.rank))
				machine.Abort("summary desync")
			}
			out[i] = s
		}
	})
	if err := t.err(); err != nil {
		return nil, false
	}
	return out, true
}
