package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/testkit"
)

func sum(a, b int) int { return a + b }

// TestBarrierStress drives the barrier through every path it has: ranks
// that arrive together (released while yielding), ranks skewed by busy work
// and, every 500th step, one rank that sleeps long enough for its peers to
// exhaust the yield budget and park on the lazily made channel behind the
// reused watchdog timer. Every superstep's Allreduce is checked, so a rank
// released early or a slot read late shows up as a wrong sum.
func TestBarrierStress(t *testing.T) {
	const steps = 10000
	for _, procs := range []int{1, 2} {
		for _, p := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("gomaxprocs=%d/p=%d", procs, p), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				_, err := New(p).Run(func(pr *machine.Proc) {
					r := pr.Rank()
					in := make([]int, 1)
					spin := 0
					for s := 0; s < steps; s++ {
						for i := (s*7 + r*13) % 64; i > 0; i-- {
							spin += i
						}
						if s%500 == 0 && (s/500)%p == r {
							time.Sleep(200 * time.Microsecond)
						}
						in[0] = s*p + r
						got := machine.Allreduce(pr.World(), in, sum)[0]
						if want := s*p*p + p*(p-1)/2; got != want {
							panic(fmt.Sprintf("step %d rank %d: allreduce = %d, want %d (spin %d)", s, r, got, want, spin))
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestAbortWhileYielding: with one P a waiter loses the processor only by
// yielding, so when the last rank sees its three peers checked in they are
// all inside the yield loop. With the watchdog off, only the failure flag
// polled there can free them.
func TestAbortWhileYielding(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	baseline := runtime.NumGoroutine()
	const p = 4
	m := New(p)
	m.SetTimeout(0)
	var waiting atomic.Int32
	done := make(chan error, 1)
	go func() {
		_, err := m.Run(func(pr *machine.Proc) {
			if pr.Rank() == p-1 {
				for waiting.Load() < p-1 {
					runtime.Gosched()
				}
				panic("injected failure")
			}
			waiting.Add(1)
			machine.Barrier(pr.World())
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("Run error = %v, want the injected panic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: yielding waiters never saw the failure")
	}
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines, %d before the region", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchdogAfterPark: rank 0 never joins the barrier, so its peers run
// out of yields, park, and the first timer to fire reports the deadlock.
func TestWatchdogAfterPark(t *testing.T) {
	m := New(3)
	m.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err := m.Run(func(pr *machine.Proc) {
		if pr.Rank() != 0 {
			machine.Barrier(pr.World())
		}
	})
	const want = "machine: barrier timeout after 50ms (collective deadlock: mismatched collective calls across ranks?)"
	if err == nil || err.Error() != want {
		t.Fatalf("Run error = %v, want %q", err, want)
	}
	if d := time.Since(start); d < 50*time.Millisecond || d > 5*time.Second {
		t.Fatalf("watchdog fired after %v, want about 50ms", d)
	}
}

// TestSimReusableAfterFailedRegion: failure state belongs to the region, so
// a caller-held machine runs a sound region after a failed one and reports
// nothing of the first. Sim only: tcpnet's mesh shares sockets across
// regions, a failed region leaves frames of unknown state on them, and the
// transport is rightly dead afterwards.
func TestSimReusableAfterFailedRegion(t *testing.T) {
	m := New(4)
	_, err := m.Run(func(pr *machine.Proc) {
		if pr.Rank() == 3 {
			panic("injected failure")
		}
		machine.Barrier(pr.World())
	})
	if err == nil {
		t.Fatal("first region: expected the injected panic")
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Run(func(pr *machine.Proc) { machine.Barrier(pr.World()) }); err != nil {
			t.Fatalf("sound region %d on the same machine: %v", i, err)
		}
	}
}

// TestSingleMemberStepAllocs: a collective on a one-member communicator
// (every Bcast of a 2D stage when p2 or p3 is 1) is a direct call.
func TestSingleMemberStepAllocs(t *testing.T) {
	st := newCommState(&region{}, 1)
	pr := machine.NewProc(st, 0, 1, nil, time.Now())
	post := machine.Payload{Codec: &testPost{data: []int{7}}, Size: 1}
	seen := 0
	step := func() {
		posts, sizes, _ := st.Exchange(pr, 0, post)
		seen += len(posts[0].(*testPost).data) + int(sizes[0])
		st.Release(pr, 0)
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("1-member superstep allocates %v times, want 0", allocs)
	}
	if seen == 0 {
		t.Fatal("the exchange never showed the post")
	}
}

// testPost is a header the sim never encodes: it hands peers the header.
type testPost struct{ data []int }

func (*testPost) Encode(int) []byte  { return nil }
func (*testPost) Decode(int, []byte) {}

// TestWarmCollectivesAllocNothing: a warm collective allocates nothing on
// the simulator. At p=4, once each has run twice, 8 calls of each of these
// allocate 0 bytes in all: a barrier, an allreduce into caller storage, the
// three receive forms, a redistribution into a kept buffer, and a move
// between equal distributions, which runs no superstep. Each collective's
// header, peer views and result storage live in the rank's store, and its
// receive runs in its own frame, so no closure or capture escapes. (When
// the backend ran the receive as a callback, the payload was two closures
// and a boxed slice and the peer views fresh slices, a one-element
// Allreduce allocated 736 bytes a call at p=4, and a move 1,600.) The
// collector is held off and the quietest of many tries gated
// (testkit.AllocMeter), since a barrier waiter may park, on a channel it
// makes, in any try.
func TestWarmCollectivesAllocNothing(t *testing.T) {
	const p, n, calls, tries = 4, 64, 8, 24
	names := []string{"Barrier", "AllreduceInto", "BcastRecv", "AllgatherRecv", "AlltoallRecv",
		"RedistributeInto/equal", "RedistributeInto/moving"}
	coo := sparse.NewCOO[float64](n, n)
	rng := rand.New(rand.NewSource(3))
	for coo.NNZ() < 600 {
		coo.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
	}
	count := algebra.CountMonoid()
	coo.Canonicalize(count)
	shard := distmat.DistShard(p)
	// The p×1×1 plan's A operand, built by spgemm apart from the shard, is
	// the same hash over the same ranks: a move to it moves nothing.
	same, _, _ := spgemm.Dists(spgemm.Plan{P1: p, P2: 1, P3: 1, X: spgemm.RoleA, YZ: spgemm.VarAB}, n, n, n)
	rows := testkit.DistRowBlock(p, n)
	meter := testkit.NewAllocMeter(p)
	least := make([]uint64, len(names))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, err := New(p).Run(func(pr *machine.Proc) {
		c, me := pr.World(), pr.Rank()
		m := distmat.FromGlobal(me, coo, shard, count)
		var buf []sparse.Entry[float64]
		data, out := []float64{float64(me), 1}, make([]float64, 2)
		parts := make([][]float64, p)
		for dst := range parts {
			parts[dst] = []float64{float64(me), float64(dst)}
		}
		seen := 0
		ops := []func(){
			func() { machine.Barrier(c) },
			func() { machine.AllreduceInto(c, data, out, count.Op) },
			func() { machine.BcastRecv(c, 1, data, func(blk []float64) { seen += len(blk) }) },
			func() { machine.AllgatherRecv(c, data, func(all [][]float64) { seen += len(all[3]) }) },
			func() { machine.AlltoallRecv(c, parts, func(runs [][]float64) { seen += len(runs[2]) }) },
			func() {
				if es := distmat.RedistributeInto(c, m, same, &buf); len(es) != len(m.Local) {
					panic("a move between equal distributions changed the block")
				}
			},
			func() { seen += len(distmat.RedistributeInto(c, m, rows, &buf)) },
		}
		for o, op := range ops {
			op()
			op()
			b := meter.Least(pr, tries, func() {
				for range calls {
					op()
				}
			})
			if me == 0 {
				least[o] = b
			}
		}
		if seen == 0 {
			panic("no collective delivered anything")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for o, name := range names {
		t.Logf("%d warm calls of %s at p=%d allocate %d bytes", calls, name, p, least[o])
		if least[o] != 0 {
			t.Errorf("%d warm calls of %s at p=%d allocate %d bytes, want 0", calls, name, p, least[o])
		}
	}
}

// BenchmarkSimSuperstep is the cost of one collective on the simulator: a
// one-element Allreduce into caller storage (two barriers), b.N of them
// inside one region.
func BenchmarkSimSuperstep(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			_, err := New(p).Run(func(pr *machine.Proc) {
				in, out := []int{pr.Rank()}, make([]int, 1)
				for i := 0; i < b.N; i++ {
					machine.AllreduceInto(pr.World(), in, out, sum)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
