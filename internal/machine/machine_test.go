// Conformance suite for machine backends: every collective, grid, phase,
// and failure-handling test runs as a shared table against each
// registered Transport implementation, and the modeled costs must be
// identical across backends (the cost model is a property of the
// collectives layer, not of the wire). Backends register themselves in
// conformanceBackends; sim is always present, tcpnet joins from
// tcpnet_backend_test.go via loopback sockets.
package machine_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/machine/sim"
)

type backendCase struct {
	name string
	make func(t testing.TB, p int) machine.Transport
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

// TestAllgatherAndGather: the gather half checks AllgatherConcat, the
// flattened form testkit.Gather is built on.
func TestAllgatherAndGather(t *testing.T) {
	forEachBackend(t, 5, func(pr *machine.Proc) {
		data := []int{pr.Rank(), pr.Rank() * 10}
		all := machine.Allgather(pr.World(), data)
		for i, part := range all {
			if part[0] != i || part[1] != i*10 {
				panic("allgather wrong content")
			}
		}
		flat := machine.AllgatherConcat(pr.World(), data)
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

func TestSplitAndGrids(t *testing.T) {
	forEachBackend(t, 12, func(pr *machine.Proc) {
		g := machine.NewGrid2(pr.World(), 3, 4)
		if g.Row.Size() != 4 || g.Col.Size() != 3 {
			panic("grid2 comm sizes wrong")
		}
		if g.Row.Rank() != g.MyC || g.Col.Rank() != g.MyR {
			panic("grid2 sub-ranks wrong")
		}
		// Row-wise sum of ranks must equal the row's world-rank sum.
		sum := machine.AllreduceScalar(g.Row, pr.Rank(), func(a, b int) int { return a + b })
		want := 0
		for j := 0; j < 4; j++ {
			want += g.RankAt(g.MyR, j)
		}
		if sum != want {
			panic("row communicator grouped wrong members")
		}

		g3 := machine.NewGrid3(pr.World(), 3, 2, 2)
		if g3.Layer.Size() != 4 || g3.Fiber.Size() != 3 {
			panic("grid3 comm sizes wrong")
		}
		lsum := machine.AllreduceScalar(g3.Fiber, g3.MyLayer, func(a, b int) int { return a + b })
		if lsum != 0+1+2 {
			panic("fiber communicator grouped wrong members")
		}
	}, nil)
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
		if got := machine.AllgatherConcat(pr.World(), []int{1, 2}); len(got) != 2 {
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
			if err == nil {
				t.Fatal("expected the injected panic to surface")
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
