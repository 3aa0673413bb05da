package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// SimAssert flags type assertions and type-switch cases that name a
// concrete type from the simulated backend (internal/machine/sim) outside
// the machine tree. Callers hold a machine.Transport; downcasting it to
// the sim backend couples them to one transport and silently breaks when
// the same code runs over tcpnet. Capability probes through interfaces
// (e.g. `tr.(interface{ Rank() int })`) stay legal — the
// analyzer only matches named sim types, not interface shapes.
var SimAssert = &analysis.Analyzer{
	Name: "simassert",
	Doc: "flags type assertions to sim-backend concrete types outside " +
		"internal/machine; callers must stay transport-agnostic",
	Run: runSimAssert,
}

// isSimPackage reports whether a package path is the simulated backend
// (repro/internal/machine/sim, or a fixture package named sim).
func isSimPackage(path string) bool {
	return path == "sim" || strings.HasSuffix(path, "/sim")
}

// inMachineTree reports whether a package path is the machine package or
// one of its sub-packages (the backends themselves), which legitimately
// name sim types.
func inMachineTree(path string) bool {
	return isMachinePackage(path) || strings.Contains(path, "machine/")
}

func runSimAssert(pass *analysis.Pass) error {
	if inMachineTree(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.TypeAssertExpr:
				// A type switch guard `x.(type)` carries a nil Type; its
				// cases are handled below.
				if node.Type != nil {
					checkSimType(pass, node.Type)
				}
			case *ast.TypeSwitchStmt:
				for _, stmt := range node.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, texpr := range cc.List {
						checkSimType(pass, texpr)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkSimType reports e when it names (possibly through pointers) a type
// defined in the sim backend package.
func checkSimType(pass *analysis.Pass, e ast.Expr) {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return
	}
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || !isSimPackage(obj.Pkg().Path()) {
		return
	}
	pass.Reportf(e.Pos(),
		"type assertion on sim-backend type %s.%s outside internal/machine; program against machine.Transport",
		obj.Pkg().Name(), obj.Name())
}
