// The superstep engine: group implements machine.Group over the mesh,
// and Run drives one rank's region body plus the closing summary
// exchange that makes RunStats identical on every process.

package tcpnet

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/machine"
)

// group is one communicator's view of the mesh: the member world ranks
// in group-rank order, and the per-step post and size slots it reuses.
// A subgroup is its member list mapped to world ranks: every member derived
// the same list by rank arithmetic, so it needs no communication.
type group struct {
	t       *Transport
	members []int // world rank of each group rank
	myIdx   int   // this rank's group rank
	posts   []machine.Codec
	sizes   []int64
}

func newGroup(t *Transport, members []int, myIdx int) *group {
	n := len(members)
	return &group{t: t, members: members, myIdx: myIdx, posts: make([]machine.Codec, n), sizes: make([]int64, n)}
}

func worldGroup(t *Transport) *group {
	members := make([]int, t.p)
	for i := range members {
		members[i] = i
	}
	return newGroup(t, members, t.rank)
}

func (g *group) Size() int { return len(g.members) }

// Exchange runs one BSP superstep: send one frame to every other member
// (payload where the header addresses that peer, cost-only otherwise),
// then collect one frame from each, decoding payloads into the header.
// Per-pair FIFO plus SPMD program order guarantees the collected frames
// belong to this superstep. Only the rank's own header is in reach.
func (g *group) Exchange(p *machine.Proc, rank int, post machine.Payload) ([]machine.Codec, []int64, machine.Cost) {
	g.posts[g.myIdx] = post.Codec
	g.sizes[g.myIdx] = post.Size
	own := p.Cost()
	for gi, wr := range g.members {
		if gi == g.myIdx {
			continue
		}
		var payload []byte
		if post.Codec != nil {
			payload = post.Codec.Encode(gi)
		}
		if err := g.t.sendData(wr, own, post.Size, payload); err != nil {
			machine.Abort(err)
		}
	}
	max := own
	for gi, wr := range g.members {
		if gi == g.myIdx {
			continue
		}
		df := g.t.recvData(wr)
		g.sizes[gi] = df.size
		max = max.Max(df.cost)
		if df.payload != nil && post.Codec != nil {
			post.Codec.Decode(gi, df.payload)
		}
	}
	return g.posts, g.sizes, max
}

// Release has nothing to wait for: what a peer posted arrived as a copy,
// and the frames this rank sent were written out before Exchange returned.
func (g *group) Release(*machine.Proc, int) {}

func (g *group) Subgroup(members []int, myIdx int) machine.Group {
	world := make([]int, len(members))
	for i, m := range members {
		world[i] = g.members[m]
	}
	return newGroup(g.t, world, myIdx)
}

// Run executes fn as this rank's part of one SPMD machine region. All
// ranks must call Run with the same program; the closing summary
// exchange then builds bit-identical RunStats everywhere (wall clock
// aside, which is measured per process).
//
// The region's Proc.Fail is the transport's fail, so whatever ends the
// region — a rank's panic or Abort, a Proc.Fail from any goroutine, a lost
// link, the watchdog — ends the transport with it: peer streams may have
// died mid-frame, so callers rebuild the mesh rather than retry on it.
func (t *Transport) Run(fn func(p *machine.Proc)) (machine.RunStats, error) {
	switch err := context.Cause(t.ctx); {
	case err == errClosed:
		return machine.RunStats{}, errClosed
	case err != nil:
		return machine.RunStats{}, fmt.Errorf("tcpnet: transport poisoned by earlier failure: %w", err)
	}
	start := time.Now()
	world := worldGroup(t)
	proc := machine.NewProc(world, t.rank, 1, t.fail, start)
	var sums []machine.ProcSummary
	machine.RunRank(proc, func(p *machine.Proc) {
		fn(p)
		sums = t.exchangeSummaries(world, p)
	})
	if err := context.Cause(t.ctx); err != nil {
		return machine.RunStats{}, err
	}
	return machine.BuildRunStats(sums, time.Since(start)), nil
}

// exchangeSummaries closes the rank's phase bookkeeping and runs one
// cost-free superstep carrying every rank's gob-encoded ProcSummary, so
// each process can fold the identical stats. The step's cost maximum is
// deliberately discarded: stats exchange is bookkeeping, not part of the
// modeled program. It runs inside the rank's machine.RunRank, after the
// region body, so a failure here aborts the region like one in the body.
func (t *Transport) exchangeSummaries(world *group, proc *machine.Proc) []machine.ProcSummary {
	self := proc.Summary()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(self); err != nil {
		machine.Abort(fmt.Errorf("tcpnet: encoding rank %d summary: %w", t.rank, err))
	}
	sp := &summaryPost{enc: buf.Bytes(), out: make([]machine.ProcSummary, t.p), got: make([]bool, t.p)}
	sp.out[t.rank], sp.got[t.rank] = self, true
	world.Exchange(proc, t.rank, machine.Payload{Codec: sp})
	world.Release(proc, t.rank)
	for _, got := range sp.got {
		if !got {
			// A cost-only frame here means some rank ran a different
			// collective sequence (its frame was consumed elsewhere).
			machine.Abort(fmt.Errorf("machine: rank %d summary exchange desynchronized (mismatched collective calls across ranks?)", t.rank))
		}
	}
	return sp.out
}

// summaryPost is the summary exchange's header: the rank's gob-encoded
// summary, sent to every peer, and the summaries decoded from theirs.
type summaryPost struct {
	enc []byte
	out []machine.ProcSummary
	got []bool
}

func (sp *summaryPost) Encode(int) []byte { return sp.enc }

func (sp *summaryPost) Decode(src int, b []byte) {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&sp.out[src]); err != nil {
		machine.Abort(fmt.Errorf("tcpnet: decoding rank %d summary: %w", src, err))
	}
	sp.got[src] = true
}
