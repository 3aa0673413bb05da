package lint

import (
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/loader"
)

func TestMapRangeFold(t *testing.T) {
	analysistest.Run(t, "testdata", MapRangeFold, "maprangefold")
}

func TestFloatEq(t *testing.T) {
	analysistest.Run(t, "testdata", FloatEq, "floateq")
}

func TestLockScope(t *testing.T) {
	analysistest.Run(t, "testdata", LockScope, "lockscope")
}

func TestPhaseNames(t *testing.T) {
	analysistest.Run(t, "testdata", PhaseNames, "phasenames")
}

func TestDetSource(t *testing.T) {
	analysistest.Run(t, "testdata", DetSource, "detsource/core")
}

func TestSimAssert(t *testing.T) {
	analysistest.Run(t, "testdata", SimAssert, "simassert/caller")
}

// TestSimAssertMachineTreeExempt: inside the machine tree the backends
// legitimately name sim types; the fixture carries no want comments.
func TestSimAssertMachineTreeExempt(t *testing.T) {
	analysistest.Run(t, "testdata", SimAssert, "simassert/machine")
}

// TestRepositoryClean runs the full suite over every package of the
// module: the same gate CI applies via go vet -vettool, kept inside plain
// `go test ./...` so a finding can never land unnoticed.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := loader.New(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("module package walk found nothing")
	}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg.Errs) > 0 {
			t.Fatalf("%s does not type-check under the lint loader: %v", path, pkg.Errs[0])
		}
		diags, err := analysis.Run(l.Fset, pkg.Files, pkg.Types, pkg.Info, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", l.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

// TestAnalyzerRegistry pins the suite's composition: six analyzers with
// stable, distinct names (the names are part of the //lint:allow syntax).
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{"maprangefold", "floateq", "lockscope", "phasenames", "detsource", "simassert"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}
