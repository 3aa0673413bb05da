// Conformance for the receive forms of the collectives, on every
// backend: AlltoallRecv and AllgatherRecv hand recv each source's part at
// its rank's index, BcastRecv the root's data, AllreduceInto writes what
// Allreduce returns, all charge exactly what the copying forms charge, and
// a receiver that copies inside recv keeps an intact result however the
// senders scribble on their send storage once the call returns. So do
// ReduceSlices' root, which folds straight from the posted parts, every
// member of an Allreduce, and every receiver of a Scatter.
package machine_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/machine"
)

// recvPart is what rank src sends rank dst in these tests: dst+1 words (so
// a part's length names its receiver) tagged with both ranks.
func recvPart(src, dst int) []int {
	out := make([]int, dst+1)
	for x := range out {
		out[x] = 1000*src + 10*dst + x
	}
	return out
}

// recvRegion runs one all-to-all, one allgather, one broadcast and one
// allreduce per rank, with the receive forms when recv is set and the
// copying forms otherwise, and one sparse reduction and one scatter, then
// scribbles over every send buffer, synchronizes, and checks what each
// rank received.
func recvRegion(recv bool) func(*machine.Proc) {
	return func(pr *machine.Proc) {
		c, me := pr.World(), pr.Rank()
		parts := make([][]int, c.Size())
		for dst := range parts {
			parts[dst] = recvPart(me, dst)
		}
		mine := recvPart(me, me)
		vec := recvPart(me, 2)
		var toAll, fromAll [][]int
		var bcast, summed []int
		if recv {
			machine.AlltoallRecv(c, parts, func(runs [][]int) {
				toAll = make([][]int, len(runs))
				for src, run := range runs {
					toAll[src] = slices.Clone(run)
				}
			})
			machine.AllgatherRecv(c, mine, func(blocks [][]int) {
				fromAll = make([][]int, len(blocks))
				for src, b := range blocks {
					fromAll[src] = slices.Clone(b)
				}
			})
			machine.BcastRecv(c, 0, mine, func(blk []int) { bcast = slices.Clone(blk) })
			summed = make([]int, len(vec))
			machine.AllreduceInto(c, vec, summed, func(a, b int) int { return a + b })
		} else {
			toAll = machine.Alltoall(c, parts)
			fromAll = machine.Allgather(c, mine)
			bcast = slices.Clone(machine.Bcast(c, 0, mine))
			summed = machine.Allreduce(c, vec, func(a, b int) int { return a + b })
			// The copying forms return the member's own part itself.
			toAll[me], fromAll[me] = slices.Clone(toAll[me]), slices.Clone(fromAll[me])
		}
		// Only the last rank contributes to the reduction, so at p > 1 the
		// root's fold is that peer's posted part merged with nothing, into
		// the fresh storage combine returns, and it survives the peer
		// writing over its part. (At p = 1 it is the root's own, which
		// comes back as is.)
		var contrib []int
		if me == c.Size()-1 && me > 0 {
			contrib = recvPart(me, 0)
		}
		reduced := machine.ReduceSlices(c, 0, contrib, func(a, b []int) []int {
			return append(slices.Clone(a), b...)
		})
		scattered := machine.Scatter(c, 0, parts)
		for _, p := range append(parts, mine, contrib, vec) {
			for x := range p {
				p[x] = -1
			}
		}
		machine.Barrier(c)
		if want := recvPart(c.Size()-1, 0); me == 0 && c.Size() > 1 && !slices.Equal(reduced, want) {
			panic(fmt.Sprintf("root's reduction: got %v, want %v", reduced, want))
		}
		if want := recvPart(0, 0); !slices.Equal(bcast, want) {
			panic(fmt.Sprintf("rank %d broadcast from 0: got %v, want %v", me, bcast, want))
		}
		if want := recvPart(0, me); !slices.Equal(scattered, want) {
			panic(fmt.Sprintf("rank %d scatter from 0: got %v, want %v", me, scattered, want))
		}
		want := make([]int, len(vec))
		for src := 0; src < c.Size(); src++ {
			for x, v := range recvPart(src, 2) {
				want[x] += v
			}
		}
		if !slices.Equal(summed, want) {
			panic(fmt.Sprintf("rank %d allreduce: got %v, want %v", me, summed, want))
		}
		for src := range toAll {
			if want := recvPart(src, me); !slices.Equal(toAll[src], want) {
				panic(fmt.Sprintf("rank %d all-to-all from %d: got %v, want %v", me, src, toAll[src], want))
			}
			if want := recvPart(src, src); !slices.Equal(fromAll[src], want) {
				panic(fmt.Sprintf("rank %d allgather from %d: got %v, want %v", me, src, fromAll[src], want))
			}
		}
	}
}

func TestRecvCollectives(t *testing.T) {
	for _, p := range []int{1, 3, 4} {
		var recvStats, copyStats machine.RunStats
		t.Run(fmt.Sprintf("recv/p=%d", p), func(t *testing.T) {
			forEachBackend(t, p, recvRegion(true), func(_ *testing.T, s machine.RunStats) { recvStats = s })
		})
		t.Run(fmt.Sprintf("copy/p=%d", p), func(t *testing.T) {
			forEachBackend(t, p, recvRegion(false), func(_ *testing.T, s machine.RunStats) { copyStats = s })
		})
		assertStatsEqual(t, "recv", recvStats, "copy", copyStats)
	}
}
