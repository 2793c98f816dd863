package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ParityCheck enforces the double-buffer contract on the split storage:
// since the parallel engines retire kernel 9 with an O(1) parity flip, a
// layout's distribution arrays Dist(0) and Dist(1) no longer mean
// "present" and "next" — only Dist(Cur()) and Dist(1-Cur()) do. A literal
// parity outside the grid/cube accessor layer silently reads the wrong
// time step's distributions on a swapped layout, corrupting physics
// without crashing (the failure mode Fu & Song's memory-aware LBM work
// warns about). Code that provably runs on an unswapped layout documents
// that proof with //lint:allow paritycheck.
var ParityCheck = &Analyzer{
	Name: "paritycheck",
	Doc:  "a layout's distribution arrays may only be indexed by parity through Cur() outside the grid/cube accessor layer",
	Scope: func(pkgPath string) bool {
		// The accessor layer itself is the only exempt code.
		return !hasSuffixPath(pkgPath, "internal/grid") && !hasSuffixPath(pkgPath, "internal/cube")
	},
	Run: runParityCheck,
}

// layoutPkgs are the packages whose Dist methods hand out a layout's
// distribution arrays: the two layouts and the core.Layout contract.
var layoutPkgs = []string{"internal/grid", "internal/cube", "internal/core"}

func runParityCheck(pass *Pass) []Diagnostic {
	if pass.Pkg == nil || pass.Pkg.Info == nil {
		return nil
	}
	info := pass.Pkg.Info
	var diags []Diagnostic
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Dist" || !isLayoutMethod(info.Uses[sel.Sel]) {
				return true
			}
			if tv, ok := info.Types[call.Args[0]]; !ok || tv.Value == nil {
				return true // a parity computed at run time
			}
			diags = append(diags, Diagnostic{
				Check: "paritycheck",
				Pos:   call.Args[0].Pos(),
				Message: fmt.Sprintf("literal parity in %s.Dist outside the grid/cube accessor layer: use Dist(Cur()) or Dist(1-Cur()) so the swap-based engines stay correct",
					exprKey(sel.X)),
			})
			return true
		})
	}
	return diags
}

// isLayoutMethod reports whether obj is a method declared in one of
// layoutPkgs.
func isLayoutMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	for _, p := range layoutPkgs {
		if hasSuffixPath(fn.Pkg().Path(), p) {
			return true
		}
	}
	return false
}
