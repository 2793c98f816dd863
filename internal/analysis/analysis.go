// Package analysis holds lockcheck, the module's one static check, and
// the stdlib-only loader it runs on (go/parser + go/types; module
// imports resolve through an on-demand recursive type-checker, the
// standard library through the GOROOT source importer). lockcheck stays
// because it catches what no test does: a lock-order cycle, which
// deadlocks only under an interleaving no test forces, and a lock held
// on a path no test drives (EXPERIMENTS.md, "Analyzer audit"). It runs
// inside go test ./... (TestLintSelfHost); there is no CLI.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one lockcheck finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// LockCheck runs lockcheck over the packages and returns its findings
// in position order.
func LockCheck(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runLockCheck(pkg)...)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

// exprKey renders a canonical, index-insensitive name for a lock or
// receiver expression: s.locks[i] and s.locks[j] both become
// "s.locks[_]", so path analyses unify over lock arrays.
func exprKey(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprKey(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprKey(v.X) + "[_]"
	case *ast.StarExpr:
		return exprKey(v.X)
	case *ast.ParenExpr:
		return exprKey(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return exprKey(v.X)
		}
	case *ast.CallExpr:
		return exprKey(v.Fun) + "()"
	}
	return "?"
}

// namedTypeName returns the name of e's named type (dereferencing
// pointers), or "" when unknown.
func namedTypeName(t types.Type) string {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v.Obj().Name()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return ""
		}
	}
}
