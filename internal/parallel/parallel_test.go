package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Resolve(7); got != 7 {
		t.Fatalf("Resolve(7) = %d, want 7", got)
	}
}

func TestRangesCoverAndOrder(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {4, 4}, {5, 4}, {100, 7}, {3, 1}, {10, 0}, {2, 16},
	} {
		rs := Ranges(tc.n, tc.parts)
		next := 0
		for _, r := range rs {
			if r[0] != next {
				t.Fatalf("Ranges(%d,%d): gap at %d (got lo=%d)", tc.n, tc.parts, next, r[0])
			}
			if r[1] <= r[0] {
				t.Fatalf("Ranges(%d,%d): empty range %v", tc.n, tc.parts, r)
			}
			next = r[1]
		}
		if next != tc.n {
			t.Fatalf("Ranges(%d,%d): covers [0,%d), want [0,%d)", tc.n, tc.parts, next, tc.n)
		}
		if tc.parts >= 1 && len(rs) > tc.parts {
			t.Fatalf("Ranges(%d,%d): %d parts, want <= %d", tc.n, tc.parts, len(rs), tc.parts)
		}
	}
}

func TestRangesBalanced(t *testing.T) {
	rs := Ranges(10, 4) // 3,3,2,2
	sizes := []int{}
	for _, r := range rs {
		sizes = append(sizes, r[1]-r[0])
	}
	want := []int{3, 3, 2, 2}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("Ranges(10,4) sizes = %v, want %v", sizes, want)
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 3, 8, 64} {
		hits := make([]int32, n)
		For(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForZero(t *testing.T) {
	called := false
	For(4, 0, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("For with n=0 invoked fn")
	}
}
