package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/machine"
)

// PhaseNames flags Proc.Phase(...) calls whose argument is not a string
// constant drawn from the canonical phase registry in internal/machine.
// Per-phase cost attribution is joined by name across reports, benches,
// and the PATCH response; an off-registry spelling forks the key space
// silently. The registry itself (machine.CanonicalPhases) is the single
// source of truth — extend it there first. Metric labels and span names are
// the registry names themselves, so there is no second table to keep in
// step.
var PhaseNames = &analysis.Analyzer{
	Name: "phasenames",
	Doc:  "flags Proc.Phase calls whose argument is not a canonical phase-registry constant",
	Run:  runPhaseNames,
}

func runPhaseNames(pass *analysis.Pass) error {
	registry := strings.Join(machine.CanonicalPhases(), "/")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "Phase" || fn.Pkg() == nil || !isMachinePackage(fn.Pkg().Path()) {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || len(call.Args) != 1 {
				return true
			}
			tv := pass.TypesInfo.Types[call.Args[0]]
			if tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(call.Args[0].Pos(),
					"Proc.Phase argument must be a string constant from the machine phase registry (%s): dynamic names fork the per-phase attribution key space", registry)
				return true
			}
			name := constant.StringVal(tv.Value)
			if !machine.IsCanonicalPhase(name) {
				pass.Reportf(call.Args[0].Pos(),
					"Proc.Phase name %q is not in the canonical phase registry (%s); add it to machine.CanonicalPhases or use a registered name", name, registry)
			}
			return true
		})
	}
	return nil
}
