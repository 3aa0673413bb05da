// Conformance suite for machine backends: every collective, grid, phase,
// and failure-handling test runs as a shared table against each
// registered Transport implementation, and the modeled costs must be
// identical across backends (the cost model is a property of the
// collectives layer, not of the wire). Backends register themselves in
// conformanceBackends; sim is always present, tcpnet joins from
// tcpnet_backend_test.go via loopback sockets.
package machine_test

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/testkit"
)

type backendCase struct {
	name string
	make func(t testing.TB, p int) machine.Transport
	// closeRank, where set, closes rank r's endpoint of a transport make
	// built: a peer lost mid-region.
	closeRank func(tr machine.Transport, r int)
}

var (
	backendsMu          sync.Mutex
	conformanceBackends = []backendCase{
		{name: "sim", make: func(_ testing.TB, p int) machine.Transport { return sim.New(p) }},
	}
)

func registerBackend(b backendCase) {
	backendsMu.Lock()
	defer backendsMu.Unlock()
	conformanceBackends = append(conformanceBackends, b)
}

func listBackends() []backendCase {
	backendsMu.Lock()
	defer backendsMu.Unlock()
	return append([]backendCase(nil), conformanceBackends...)
}

// forEachBackend runs the region on every registered backend and checks
// that the modeled run statistics agree bit-for-bit across them.
func forEachBackend(t *testing.T, p int, region func(pr *machine.Proc), check func(t *testing.T, stats machine.RunStats)) {
	t.Helper()
	var ref *machine.RunStats
	var refName string
	for _, b := range listBackends() {
		t.Run(fmt.Sprintf("%s/p=%d", b.name, p), func(t *testing.T) {
			tr := b.make(t, p)
			stats, err := tr.Run(region)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if check != nil {
				check(t, stats)
			}
			if ref == nil {
				ref, refName = &stats, b.name
				return
			}
			assertStatsEqual(t, refName, *ref, b.name, stats)
		})
	}
}

// assertStatsEqual pins the cross-backend invariant: modeled cost, its
// per-proc decomposition, and the phase breakdown must not depend on the
// backend. Wall-clock fields are backend-specific and excluded.
func assertStatsEqual(t *testing.T, an string, a machine.RunStats, bn string, b machine.RunStats) {
	t.Helper()
	if a.MaxCost != b.MaxCost {
		t.Fatalf("MaxCost differs: %s=%v %s=%v", an, a.MaxCost, bn, b.MaxCost)
	}
	if a.ModelSec != b.ModelSec || a.CommSec != b.CommSec {
		t.Fatalf("modeled seconds differ: %s=(%g,%g) %s=(%g,%g)", an, a.ModelSec, a.CommSec, bn, b.ModelSec, b.CommSec)
	}
	if len(a.PerProc) != len(b.PerProc) {
		t.Fatalf("PerProc length differs: %d vs %d", len(a.PerProc), len(b.PerProc))
	}
	for r := range a.PerProc {
		if a.PerProc[r] != b.PerProc[r] {
			t.Fatalf("rank %d cost differs: %s=%v %s=%v", r, an, a.PerProc[r], bn, b.PerProc[r])
		}
	}
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("phase count differs: %d vs %d", len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if pa.Name != pb.Name || pa.MaxCost != pb.MaxCost {
			t.Fatalf("phase %d differs: %s={%q %v} %s={%q %v}", i, an, pa.Name, pa.MaxCost, bn, pb.Name, pb.MaxCost)
		}
		for r := range pa.PerProc {
			if pa.PerProc[r] != pb.PerProc[r] {
				t.Fatalf("phase %q rank %d cost differs", pa.Name, r)
			}
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		forEachBackend(t, p, func(pr *machine.Proc) {
			var data []int
			if pr.Rank() == 0 {
				data = []int{10, 20, 30}
			}
			got := machine.Bcast(pr.World(), 0, data)
			if len(got) != 3 || got[0] != 10 || got[2] != 30 {
				panic(fmt.Sprintf("rank %d got %v", pr.Rank(), got))
			}
		}, func(t *testing.T, stats machine.RunStats) {
			wantBytes := int64(2 * 3 * 8)
			if p == 1 {
				wantBytes = 0 // self-communication is free
			}
			if stats.MaxCost.Bytes != wantBytes {
				t.Fatalf("p=%d: bcast charged %d bytes, want %d", p, stats.MaxCost.Bytes, wantBytes)
			}
			if p > 1 && stats.MaxCost.Msgs != 2*machine.LogMsgs(p) {
				t.Fatalf("p=%d: bcast charged %d msgs, want %d", p, stats.MaxCost.Msgs, 2*machine.LogMsgs(p))
			}
		})
	}
}

// TestAllgatherAndGather: the gather half checks testkit.AllgatherConcat,
// the flattened form testkit.Gather is built on.
func TestAllgatherAndGather(t *testing.T) {
	forEachBackend(t, 5, func(pr *machine.Proc) {
		data := []int{pr.Rank(), pr.Rank() * 10}
		all := machine.Allgather(pr.World(), data)
		for i, part := range all {
			if part[0] != i || part[1] != i*10 {
				panic("allgather wrong content")
			}
		}
		flat := testkit.AllgatherConcat(pr.World(), data)
		if len(flat) != 10 || flat[8] != 4 || flat[9] != 40 {
			panic("allgather-concat lost rank order")
		}
	}, nil)
}

func TestAllreduce(t *testing.T) {
	forEachBackend(t, 6, func(pr *machine.Proc) {
		v := machine.Allreduce(pr.World(), []float64{float64(pr.Rank()), 1}, func(a, b float64) float64 { return a + b })
		if v[0] != 15 || v[1] != 6 {
			panic(fmt.Sprintf("allreduce got %v", v))
		}
		s := machine.AllreduceScalar(pr.World(), pr.Rank(), func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
		if s != 5 {
			panic("allreduce max wrong")
		}
	}, nil)
}

func TestScatter(t *testing.T) {
	forEachBackend(t, 3, func(pr *machine.Proc) {
		var parts [][]int
		if pr.Rank() == 1 {
			parts = [][]int{{0}, {1, 1}, {2, 2, 2}}
		}
		got := machine.Scatter(pr.World(), 1, parts)
		if len(got) != pr.Rank()+1 {
			panic("scatter wrong size")
		}
		for _, v := range got {
			if v != pr.Rank() {
				panic("scatter wrong content")
			}
		}
	}, nil)
}

func TestAlltoall(t *testing.T) {
	forEachBackend(t, 4, func(pr *machine.Proc) {
		parts := make([][]int, 4)
		for j := range parts {
			parts[j] = []int{pr.Rank()*10 + j}
		}
		got := machine.Alltoall(pr.World(), parts)
		for i, part := range got {
			if len(part) != 1 || part[0] != i*10+pr.Rank() {
				panic(fmt.Sprintf("alltoall rank %d from %d: %v", pr.Rank(), i, part))
			}
		}
	}, nil)
}

func TestReduceSlices(t *testing.T) {
	merge := func(a, b []int) []int {
		out := append(append([]int{}, a...), b...)
		sort.Ints(out)
		return out
	}
	forEachBackend(t, 4, func(pr *machine.Proc) {
		data := []int{pr.Rank(), pr.Rank() + 100}
		got := machine.ReduceSlices(pr.World(), 0, data, merge)
		if pr.Rank() == 0 {
			want := []int{0, 1, 2, 3, 100, 101, 102, 103}
			if len(got) != len(want) {
				panic("reduceslices wrong length")
			}
			for i := range want {
				if got[i] != want[i] {
					panic("reduceslices wrong content")
				}
			}
		}
	}, nil)
}

// TestSplitAndGrids builds every 3D and 2D grid of every factorization of
// p = 1…12 on every backend, and checks that building them charges nothing
// and that each Layer, Fiber, Row and Col communicator holds, in rank order,
// the world ranks an MPI_Comm_split by the grid's (color, key) would: the
// members sharing this rank's color, ranked by (key, old rank).
func TestSplitAndGrids(t *testing.T) {
	for p := 1; p <= 12; p++ {
		forEachBackend(t, p, func(pr *machine.Proc) {
			world, me := pr.World(), pr.Rank()
			fs3, fs2 := machine.Factorizations3(p), machine.Factorizations2(p)
			g3s := make([]*machine.Grid3, len(fs3))
			for x, f := range fs3 {
				g3s[x] = machine.NewGrid3(world, f[0], f[1], f[2])
			}
			g2s := make([]*machine.Grid2, len(fs2))
			for x, f := range fs2 {
				g2s[x] = machine.NewGrid2(world, f[0], f[1])
			}
			if c := pr.Cost(); c != (machine.Cost{}) {
				panic(fmt.Sprintf("building the grids of %d ranks charged %v", p, c))
			}
			// checkGrid2 checks a pr×pc grid over the ranks first, first+1, …
			checkGrid2 := func(name string, g *machine.Grid2, first int) {
				q := me - first
				layer := func(x int) int { return first + x }
				checkMembers(fmt.Sprintf("%s row", name), g.Row, me, splitBy(g.PR*g.PC, q, func(x int) int { return x / g.PC }, func(x int) int { return x % g.PC }), layer)
				checkMembers(fmt.Sprintf("%s col", name), g.Col, me, splitBy(g.PR*g.PC, q, func(x int) int { return g.PR + x%g.PC }, func(x int) int { return x / g.PC }), layer)
				if g.MyR != q/g.PC || g.MyC != q%g.PC {
					panic(fmt.Sprintf("%s: rank %d at (%d, %d)", name, me, g.MyR, g.MyC))
				}
			}
			same := func(x int) int { return x }
			for x, g := range g3s {
				name := fmt.Sprintf("%dx%dx%d", fs3[x][0], fs3[x][1], fs3[x][2])
				ls := g.P2 * g.P3
				checkMembers(name+" layer", g.Layer, me, splitBy(p, me, func(x int) int { return x / ls }, func(x int) int { return x % ls }), same)
				checkMembers(name+" fiber", g.Fiber, me, splitBy(p, me, func(x int) int { return p + x%ls }, func(x int) int { return x / ls }), same)
				if g.MyLayer != me/ls {
					panic(fmt.Sprintf("%s: rank %d on layer %d", name, me, g.MyLayer))
				}
				checkGrid2(name, g.G2, g.MyLayer*ls)
			}
			for x, g := range g2s {
				checkGrid2(fmt.Sprintf("%dx%d", fs2[x][0], fs2[x][1]), g, 0)
			}
		}, nil)
	}
}

// splitBy is MPI_Comm_split's grouping of ranks 0…n−1: those sharing me's
// color, ranked by (key, rank).
func splitBy(n, me int, color, key func(int) int) []int {
	var members []int
	for x := 0; x < n; x++ {
		if color(x) == color(me) {
			members = append(members, x)
		}
	}
	sort.SliceStable(members, func(a, b int) bool { return key(members[a]) < key(members[b]) })
	return members
}

// checkMembers checks that c's members, gathered in rank order, are the
// world ranks world(x) of want, and that me (a world rank) sits at its
// place in want.
func checkMembers(name string, c *machine.Comm, me int, want []int, world func(int) int) {
	got := testkit.AllgatherConcat(c, []int{me})
	wantWorld := make([]int, len(want))
	for x, r := range want {
		wantWorld[x] = world(r)
	}
	if !slices.Equal(got, wantWorld) {
		panic(fmt.Sprintf("%s communicator of rank %d holds %v, the split gives %v", name, me, got, wantWorld))
	}
	if got[c.Rank()] != me {
		panic(fmt.Sprintf("%s communicator ranks %d at %d, which holds %d", name, me, c.Rank(), got[c.Rank()]))
	}
}

func TestCriticalPathMax(t *testing.T) {
	// One processor does extra flops; after a barrier everyone's critical
	// path must include them.
	forEachBackend(t, 4, func(pr *machine.Proc) {
		if pr.Rank() == 2 {
			pr.AddFlops(1000)
		}
		machine.Barrier(pr.World())
		if pr.Cost().Flops < 1000 {
			panic("critical path did not absorb the slow rank")
		}
	}, func(t *testing.T, stats machine.RunStats) {
		if stats.MaxCost.Flops < 1000 {
			t.Fatal("run stats lost flops")
		}
	})
}

func TestSingleProcDegenerate(t *testing.T) {
	forEachBackend(t, 1, func(pr *machine.Proc) {
		if got := machine.Bcast(pr.World(), 0, []int{7}); got[0] != 7 {
			panic("p=1 bcast")
		}
		if got := testkit.AllgatherConcat(pr.World(), []int{1, 2}); len(got) != 2 {
			panic("p=1 allgather")
		}
		if got := machine.Alltoall(pr.World(), [][]int{{9}}); got[0][0] != 9 {
			panic("p=1 alltoall")
		}
	}, nil)
}

func TestRunPhaseAttribution(t *testing.T) {
	forEachBackend(t, 4, func(pr *machine.Proc) {
		pr.Phase("stage")
		machine.Bcast(pr.World(), 0, []int{1, 2, 3})
		pr.AddFlops(100)
		pr.Phase("sweep")
		machine.Allreduce(pr.World(), []float64{1, 2}, func(a, b float64) float64 { return a + b })
		pr.Phase("stage") // re-entering accumulates into the same bucket
		pr.AddFlops(50)
	}, func(t *testing.T, stats machine.RunStats) {
		if len(stats.Phases) != 2 {
			t.Fatalf("want 2 phases, got %+v", stats.Phases)
		}
		if stats.Phases[0].Name != "stage" || stats.Phases[1].Name != "sweep" {
			t.Fatalf("phase order wrong: %q, %q", stats.Phases[0].Name, stats.Phases[1].Name)
		}
		// Per processor, phase costs must sum exactly to the run total.
		for r, total := range stats.PerProc {
			var sum machine.Cost
			for _, ph := range stats.Phases {
				sum = sum.Add(ph.PerProc[r])
			}
			if sum != total {
				t.Fatalf("rank %d: phase sum %v != total %v", r, sum, total)
			}
		}
		// This workload is symmetric, so the phase maxima also sum to the run
		// maximum (the same processor is critical in every phase).
		var sum machine.Cost
		for _, ph := range stats.Phases {
			sum = sum.Add(ph.MaxCost)
		}
		if sum != stats.MaxCost {
			t.Fatalf("phase max sum %v != run max %v", sum, stats.MaxCost)
		}
		if stats.Phases[0].PerProc[0].Flops != 150 {
			t.Fatalf("re-entered phase must accumulate: got %d flops", stats.Phases[0].PerProc[0].Flops)
		}
		if stats.Phases[0].MaxCost.Msgs == 0 || stats.Phases[1].MaxCost.Msgs == 0 {
			t.Fatal("both phases moved data; msgs must be attributed to each")
		}
	})
}

func TestRunPhaseWallClock(t *testing.T) {
	forEachBackend(t, 2, func(pr *machine.Proc) {
		pr.Phase("stage")
		time.Sleep(2 * time.Millisecond)
		pr.Phase("sweep")
		time.Sleep(1 * time.Millisecond)
	}, func(t *testing.T, stats machine.RunStats) {
		if len(stats.Phases) != 2 {
			t.Fatalf("want 2 phases, got %+v", stats.Phases)
		}
		for _, ph := range stats.Phases {
			if ph.Wall <= 0 {
				t.Errorf("phase %q wall = %v, want > 0", ph.Name, ph.Wall)
			}
			if ph.Wall > stats.Wall {
				t.Errorf("phase %q wall %v exceeds region wall %v", ph.Name, ph.Wall, stats.Wall)
			}
		}
	})
}

func TestRunWithoutPhasesReportsNone(t *testing.T) {
	forEachBackend(t, 2, func(pr *machine.Proc) {
		machine.Barrier(pr.World())
	}, func(t *testing.T, stats machine.RunStats) {
		if stats.Phases != nil {
			t.Fatalf("no Phase calls must mean no breakdown, got %+v", stats.Phases)
		}
	})
}

func TestRunPhasePrelude(t *testing.T) {
	// Cost accrued before the first Phase call lands in the "" bucket.
	forEachBackend(t, 2, func(pr *machine.Proc) {
		machine.Barrier(pr.World())
		pr.Phase("late")
		pr.AddFlops(7)
	}, func(t *testing.T, stats machine.RunStats) {
		if len(stats.Phases) != 2 || stats.Phases[0].Name != "" || stats.Phases[1].Name != "late" {
			t.Fatalf("want [\"\", late], got %+v", stats.Phases)
		}
		if stats.Phases[1].MaxCost.Flops != 7 {
			t.Fatalf("late phase flops = %d, want 7", stats.Phases[1].MaxCost.Flops)
		}
	})
}

// TestPanicPropagation and TestDeadlockWatchdog exercise failure paths,
// which every backend must surface as a run error on every rank.
func TestPanicPropagation(t *testing.T) {
	for _, b := range listBackends() {
		t.Run(b.name, func(t *testing.T) {
			tr := b.make(t, 4)
			_, err := tr.Run(func(pr *machine.Proc) {
				if pr.Rank() == 3 {
					panic("injected failure")
				}
				// Other ranks wait on a collective; the abort must free them.
				machine.Barrier(pr.World())
			})
			// Both backends run a rank through machine.RunRank: one message,
			// the panicking rank's stack included.
			if err == nil || !strings.Contains(err.Error(), "machine: proc 3 panicked: injected failure\ngoroutine ") {
				t.Fatalf("the injected panic surfaced as %v", err)
			}
		})
	}
}

func TestDeadlockWatchdog(t *testing.T) {
	for _, b := range listBackends() {
		t.Run(b.name, func(t *testing.T) {
			tr := b.make(t, 2)
			tr.SetTimeout(50 * time.Millisecond)
			_, err := tr.Run(func(pr *machine.Proc) {
				if pr.Rank() == 0 {
					machine.Barrier(pr.World()) // rank 1 never shows up: mismatched collective
				}
			})
			if err == nil {
				t.Fatal("expected watchdog to flag the deadlock")
			}
		})
	}
}

// TestRegionEndsOneWay: whatever ends a region — a rank's panic, a rank's
// Abort (AlltoallRecv's shape check), the watchdog, a Proc.Fail from
// another goroutine and, on tcp, a peer whose endpoint closes mid-region —
// Run returns that cause, and every goroutine the backend started ends
// (tcp's once its mesh is closed). A sim machine then runs a clean region;
// a tcp transport reports itself poisoned.
func TestRegionEndsOneWay(t *testing.T) {
	const p = 4
	injected := errors.New("injected cause")
	untilEnded := func(pr *machine.Proc) {
		for {
			machine.Barrier(pr.World())
		}
	}
	causes := []struct {
		name    string
		timeout time.Duration // the watchdog, when set
		region  func(pr *machine.Proc, closeLast func())
		want    string
	}{
		{name: "panic", want: "machine: proc 3 panicked: injected failure",
			region: func(pr *machine.Proc, _ func()) {
				if pr.Rank() == p-1 {
					panic("injected failure")
				}
				machine.Barrier(pr.World())
			}},
		{name: "abort", want: "machine: alltoall called with wrong number of parts",
			region: func(pr *machine.Proc, _ func()) {
				parts := make([][]int, p)
				if pr.Rank() == p-1 {
					parts = parts[:1]
				}
				machine.AlltoallRecv(pr.World(), parts, func([][]int) {})
			}},
		{name: "watchdog", timeout: 20 * time.Millisecond, want: "(collective deadlock: mismatched collective calls across ranks?)",
			region: func(pr *machine.Proc, _ func()) {
				if pr.Rank() == 0 {
					time.Sleep(200 * time.Millisecond) // a straggler, far past its peers' watchdog
				}
				machine.Barrier(pr.World())
			}},
		{name: "fail", want: injected.Error(),
			region: func(pr *machine.Proc, _ func()) {
				if pr.Rank() == 0 {
					go pr.Fail(injected)
				}
				untilEnded(pr)
			}},
		{name: "lost-peer", want: fmt.Sprintf("rank %d", p-1),
			region: func(pr *machine.Proc, closeLast func()) {
				machine.Barrier(pr.World())
				if pr.Rank() == p-1 {
					closeLast()
				}
				untilEnded(pr)
			}},
	}
	for _, b := range listBackends() {
		for _, c := range causes {
			if c.name == "lost-peer" && b.closeRank == nil {
				continue
			}
			t.Run(b.name+"/"+c.name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				tr := b.make(t, p)
				if c.timeout > 0 {
					tr.SetTimeout(c.timeout)
				}
				_, err := tr.Run(func(pr *machine.Proc) { c.region(pr, func() { b.closeRank(tr, p-1) }) })
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("Run returned %v, want its cause %q", err, c.want)
				}
				if b.name == "sim" {
					if _, err := tr.Run(func(pr *machine.Proc) { machine.Barrier(pr.World()) }); err != nil {
						t.Fatalf("a clean region after the failed one: %v", err)
					}
				} else if _, err := tr.Run(func(*machine.Proc) {}); err == nil || !strings.Contains(err.Error(), "poisoned") {
					t.Fatalf("a region on the ended transport returned %v, want it poisoned", err)
				}
				if cl, ok := tr.(io.Closer); ok {
					cl.Close()
				}
				for i := 0; runtime.NumGoroutine() > baseline; i++ {
					if i == 1000 {
						t.Fatalf("%d goroutines, %d before the region", runtime.NumGoroutine(), baseline)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
