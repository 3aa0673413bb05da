package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestJSONHoldsEveryFinishedExperiment: -json writes the points of the
// experiments a run finished — all of a quick table2 run's, which the
// experiment also prints, one row per point — and a run an experiment
// fails still leaves the file, holding what finished before it (here
// nothing), beside exit status 1.
func TestJSONHoldsEveryFinishedExperiment(t *testing.T) {
	dir := t.TempDir()
	read := func(path string) []bench.Point {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var pts []bench.Point
		if err := json.Unmarshal(raw, &pts); err != nil {
			t.Fatal(err)
		}
		return pts
	}

	path := filepath.Join(dir, "table2.json")
	var stdout strings.Builder
	if code := run([]string{"-exp", "table2", "-quick", "-procs", "1", "-json", path}, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit status %d", code)
	}
	pts := read(path)
	if len(pts) == 0 {
		t.Fatal("no points written")
	}
	for _, pt := range pts {
		if pt.Experiment != "table2" || !strings.Contains(stdout.String(), pt.Graph) {
			t.Errorf("point %+v is not one the table2 run printed", pt)
		}
	}

	failed := filepath.Join(dir, "failed.json")
	if code := run([]string{"-exp", "no-such-experiment", "-json", failed}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("a failing experiment exits %d, want 1", code)
	}
	if pts := read(failed); len(pts) != 0 {
		t.Fatalf("a run that finished nothing wrote %d points", len(pts))
	}
}
