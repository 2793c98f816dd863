package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCheck forbids ==/!= on floating-point operands in the physics
// packages. Exact float equality in kernel code is either a disguised
// sentinel ("Tau == 0 means unset"), a weight-skip micro-optimization,
// or a genuine bug; all three deserve review, and the reviewed ones are
// documented in place with //lint:allow floatcheck and the reason. The
// bitwise-equality contract tests live in _test.go files, which the
// loader does not analyze, so they are allowlisted by construction.
var FloatCheck = &Analyzer{
	Name: "floatcheck",
	Doc:  "no ==/!= on floating-point operands in physics packages",
	Scope: func(pkgPath string) bool {
		for _, p := range []string{
			"internal/core", "internal/grid", "internal/cube", "internal/lattice",
			"internal/ibm", "internal/fiber", "internal/cubesolver", "internal/omp",
			"internal/taskflow", "internal/validate",
		} {
			if hasSuffixPath(pkgPath, p) {
				return true
			}
		}
		return false
	},
	Run: runFloatCheck,
}

func runFloatCheck(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if isFloat(pass.TypeOf(be.X)) || isFloat(pass.TypeOf(be.Y)) {
				diags = append(diags, Diagnostic{
					Check: "floatcheck",
					Pos:   be.OpPos,
					Message: fmt.Sprintf("floating-point %s comparison in physics code: use a tolerance, math.Abs, or document the sentinel with //lint:allow floatcheck -- <reason>",
						be.Op),
				})
			}
			return true
		})
	}
	return diags
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
