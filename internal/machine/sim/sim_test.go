package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
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
	post := machine.Payload{V: []int{7}, Size: 1}
	seen := 0
	read := func(slots []any, sizes []int64) { seen += len(slots[0].([]int)) + int(sizes[0]) }
	if allocs := testing.AllocsPerRun(100, func() { st.Step(pr, 0, post, read) }); allocs != 0 {
		t.Fatalf("1-member Step allocates %v times, want 0", allocs)
	}
	if seen == 0 {
		t.Fatal("read never ran")
	}
}

// BenchmarkSimSuperstep is the cost of one collective on the simulator: a
// one-element Allreduce (two barriers), b.N of them inside one region.
func BenchmarkSimSuperstep(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			_, err := New(p).Run(func(pr *machine.Proc) {
				in := []int{pr.Rank()}
				for i := 0; i < b.N; i++ {
					machine.Allreduce(pr.World(), in, sum)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
