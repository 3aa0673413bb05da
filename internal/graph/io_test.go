package graph

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// failAfterWriter errors once more than limit bytes have been attempted,
// like a full disk partway through a write.
type failAfterWriter struct {
	limit   int
	written int
}

var errDiskFull = errors.New("disk full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		if n < 0 {
			n = 0
		}
		w.written += n
		return n, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

// bigGraph returns a graph whose edge list overflows bufio's 4 KiB buffer,
// so write errors surface mid-loop rather than only at Flush.
func bigGraph() *Graph {
	g := &Graph{Name: "big", N: 2000}
	for i := int32(0); i+1 < 2000; i++ {
		g.Edges = append(g.Edges, Edge{U: i, V: i + 1, W: 1})
	}
	return g
}

// TestWriteEdgeListPropagatesWriteError: the first underlying write error
// must be returned (previously only Flush's error surfaced, and a caller
// retrying Flush could mistake a truncated file for success).
func TestWriteEdgeListPropagatesWriteError(t *testing.T) {
	err := WriteEdgeList(&failAfterWriter{limit: 6000}, bigGraph())
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteEdgeList = %v, want errDiskFull", err)
	}
}

// TestWriteEdgeListErrorAtFlush: an error only the final flush hits (small
// graph, everything buffered) must still be returned.
func TestWriteEdgeListErrorAtFlush(t *testing.T) {
	g := &Graph{Name: "tiny", N: 2, Edges: []Edge{{U: 0, V: 1, W: 1}}}
	err := WriteEdgeList(&failAfterWriter{limit: 10}, g)
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteEdgeList = %v, want errDiskFull", err)
	}
}

// TestReadEdgeListErrors covers the parse-error paths: malformed edge
// lines, bad endpoints and weights, broken headers, and structurally
// invalid results (negative ids surface through Validate).
func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name, input, want string
	}{
		{"one-field line", "0 1\n2\n", "malformed edge line"},
		{"non-numeric endpoint", "0 x\n", "bad endpoint"},
		{"overflowing endpoint", "0 99999999999999\n", "bad endpoint"},
		{"non-numeric weight", "0 1 heavy\n", "bad weight"},
		{"bad nodes header", "# nodes many\n0 1\n", "bad nodes header"},
		{"negative vertex id", "-3 1\n", "outside"},
		{"nonpositive weight", "0 1 -4\n", "nonpositive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readEdgeList(strings.NewReader(tc.input))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadEdgeList(%q) = %v, want error containing %q", tc.input, err, tc.want)
			}
		})
	}
}

// TestReadEdgeListSanitizesSelfLoops: self-loop lines are dropped by the
// canonicalization pass (SNAP dumps contain them), not rejected.
func TestReadEdgeListSanitizesSelfLoops(t *testing.T) {
	g, err := readEdgeList(strings.NewReader("2 2\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("m = %d, want the self-loop dropped", g.M())
	}
}

// TestReadEdgeListDeclaredN: a nodes header larger than the max vertex id
// must win (isolated tail vertices), and a smaller one must not truncate.
func TestReadEdgeListDeclaredN(t *testing.T) {
	g, err := readEdgeList(strings.NewReader("# nodes 10\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 10 {
		t.Fatalf("declared nodes ignored: n = %d, want 10", g.N)
	}
	g, err = readEdgeList(strings.NewReader("# nodes 2\n0 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 6 {
		t.Fatalf("undersized header truncated: n = %d, want 6", g.N)
	}
}

// TestLoadFileMissing: a nonexistent path must return the os error, not
// panic or yield an empty graph.
func TestLoadFileMissing(t *testing.T) {
	g, err := LoadFile(filepath.Join(t.TempDir(), "no-such-graph.txt"))
	if err == nil || g != nil {
		t.Fatalf("LoadFile(missing) = %v, %v; want nil graph and an error", g, err)
	}
	if !os.IsNotExist(err) {
		t.Fatalf("LoadFile(missing) error = %v, want IsNotExist", err)
	}
}

// TestWriteEdgeListRoundTrip guards the happy path after the error-handling
// rework.
func TestWriteEdgeListRoundTrip(t *testing.T) {
	g := &Graph{Name: "rt", N: 4, Weighted: true, Edges: []Edge{
		{U: 0, V: 1, W: 2.5}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 0.25},
	}}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	got, err := readEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if got.N != g.N || len(got.Edges) != len(g.Edges) || !got.Weighted {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i, e := range got.Edges {
		want := g.Edges[i]
		if fmt.Sprint(e) != fmt.Sprint(want) {
			t.Fatalf("edge %d = %v, want %v", i, e, want)
		}
	}
}
