package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ParityCheck enforces the phase contract on the split storage. The
// parallel engines hold one distribution array per layout and stream it
// in place (core.AABlock), so between steps the array is in one of two
// phases: natural, where slot (n, q) holds f_q(n), or swapped, where it
// holds a neighbour's value. Only the engine knows which, and only its
// canonicalizing accessor — Live on an engine, live on the facade's
// engine adapter — turns a swapped array natural before handing it out.
// A raw Dist() read anywhere else reads the swapped phase as if it were
// natural half the time, corrupting a checkpoint or a snapshot without
// crashing (the failure mode Fu & Song's memory-aware LBM work warns
// about). So outside the layouts, core and the three in-place engines,
// a layout's Dist() must be called on the accessor's result: directly,
// or through a variable every assignment of which is such a call. Code
// that provably reads a layout no engine streams (one it built itself)
// documents that proof with //lint:allow paritycheck.
var ParityCheck = &Analyzer{
	Name: "paritycheck",
	Doc:  "a layout's distribution array may only be read through an engine's canonicalizing accessor (Live/live) outside the layouts, core and the in-place engines",
	Scope: func(pkgPath string) bool {
		for _, p := range phasePkgs {
			if hasSuffixPath(pkgPath, p) {
				return false
			}
		}
		return true
	},
	Run: runParityCheck,
}

// phasePkgs know the phase of the arrays they touch: the layouts, the
// bodies that stream in place, and the engines that track the phase bit.
var phasePkgs = []string{
	"internal/grid", "internal/cube", "internal/core",
	"internal/omp", "internal/cubesolver", "internal/fused",
}

// layoutPkgs are the packages whose Dist methods hand out a layout's
// distribution array: the two layouts and the core.Layout contract.
var layoutPkgs = []string{"internal/grid", "internal/cube", "internal/core"}

func runParityCheck(pass *Pass) []Diagnostic {
	if pass.Pkg == nil || pass.Pkg.Info == nil {
		return nil
	}
	info := pass.Pkg.Info
	var diags []Diagnostic
	for _, f := range pass.Pkg.Files {
		live := accessorVars(f, info)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Dist" || !isLayoutMethod(info.Uses[sel.Sel]) {
				return true
			}
			if isAccessorCall(sel.X) {
				return true
			}
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && live[info.Uses[id]] {
				return true
			}
			diags = append(diags, Diagnostic{
				Check: "paritycheck",
				Pos:   sel.Sel.Pos(),
				Message: fmt.Sprintf("raw read of %s.Dist() outside the layouts and the in-place engines: the array may be in the swapped phase; read it through the engine's Live (or the facade's live)",
					exprKey(sel.X)),
			})
			return true
		})
	}
	return diags
}

// isAccessorCall reports whether e is a call of a function or method
// named Live or live: an engine's canonicalizing accessor.
func isAccessorCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	}
	return name == "Live" || name == "live"
}

// accessorVars returns the variables of f every assignment of which is a
// single accessor call.
func accessorVars(f *ast.File, info *types.Info) map[types.Object]bool {
	live := map[types.Object]bool{}
	assign := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		good := rhs != nil && isAccessorCall(rhs)
		if prev, seen := live[obj]; seen {
			good = good && prev
		}
		live[obj] = good
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE && s.Tok != token.ASSIGN {
				return true
			}
			for i, l := range s.Lhs {
				var r ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					r = s.Rhs[i]
				}
				assign(l, r)
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				var r ast.Expr
				if len(s.Values) == len(s.Names) {
					r = s.Values[i]
				}
				assign(name, r)
			}
		}
		return true
	})
	return live
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
