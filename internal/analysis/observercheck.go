package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ObserverCheck guards the telemetry seam: the engines' one
// instrumentation hook, core.Probe (reached through Problem.Probe),
// defaults to nil so the uninstrumented hot path pays nothing — which
// means every invocation site must prove the interface is non-nil
// first. An unguarded call is a latent panic that only fires on the
// uninstrumented configuration, i.e. exactly the one the race detector
// never runs.
//
// A call obs.M(...) counts as guarded when one of these dominates it:
//
//   - an enclosing `if obs != nil { ... }` (including the
//     `if obs := s.X; obs != nil` form);
//   - an earlier `if obs == nil { return/continue/break/panic }` guard
//     in an enclosing block;
//   - either of the above spelled against the aliased source when obs
//     was assigned once from a field (obs := s.X guarded via s.X).
var ObserverCheck = &Analyzer{
	Name: "observercheck",
	Doc:  "observer interface calls must be nil-guarded on hot paths",
	Run:  runObserverCheck,
}

func runObserverCheck(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for fi, f := range pass.Pkg.Files {
		par := newParentMap(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := sel.X
			t := pass.TypeOf(recv)
			if !isProbe(t) {
				return true
			}
			if isNilGuarded(pass, par, recv, call) {
				return true
			}
			d := Diagnostic{
				Check: "observercheck",
				Pos:   call.Pos(),
				Message: fmt.Sprintf("call to %s %s.%s is not nil-guarded: the probe defaults to nil on the uninstrumented path",
					namedTypeName(t), exprKey(recv), sel.Sel.Name),
			}
			if fix := guardFix(pass, par, recv, call, fi); fix != nil {
				d.Fix = fix
			}
			diags = append(diags, d)
			return true
		})
	}
	return diags
}

// isProbe reports whether t is the event contract itself: the interface
// type Probe declared in internal/core. Recognition is by type, not by
// name, so a sink's own helper interfaces are not swept in and renaming
// a local cannot hide a call.
func isProbe(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Name() != "Probe" || named.Obj().Pkg() == nil {
		return false
	}
	_, iface := named.Underlying().(*types.Interface)
	return iface && hasSuffixPath(named.Obj().Pkg().Path(), "internal/core")
}

// parentMap records each node's parent for upward walks.
type parentMap map[ast.Node]ast.Node

func newParentMap(f *ast.File) parentMap {
	pm := make(parentMap)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			pm[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return pm
}

// recvAliases returns the canonical spellings that denote the same
// value as recv for guard matching: recv itself, plus — when recv is a
// local assigned exactly once from a single expression — that source
// expression (obs := s.Observer makes "s.Observer" an alias of "obs").
// The second result reports whether recv is such a stable
// single-assignment local: a guard on a stable local outside a closure
// still holds inside it, because nothing can reassign the captured
// variable.
func recvAliases(pass *Pass, par parentMap, recv ast.Expr) (map[string]bool, bool) {
	aliases := map[string]bool{exprKey(recv): true}
	id, ok := recv.(*ast.Ident)
	if !ok || pass.Pkg == nil || pass.Pkg.Info == nil {
		return aliases, false
	}
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil {
		return aliases, false
	}
	// Search the outermost enclosing function declaration so the
	// defining assignment of a captured local is found across closure
	// boundaries.
	var fnBody ast.Node
	for n := ast.Node(recv); n != nil; n = par[n] {
		switch v := n.(type) {
		case *ast.FuncLit:
			fnBody = v.Body
		case *ast.FuncDecl:
			fnBody = v.Body
		}
	}
	if fnBody == nil {
		return aliases, false
	}
	count := 0
	var src ast.Expr
	ast.Inspect(fnBody, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if def := pass.Pkg.Info.Defs[lid]; def != nil && def == obj {
				count++
				src = as.Rhs[i]
			} else if use := pass.Pkg.Info.Uses[lid]; use != nil && use == obj {
				count++ // reassignment: alias no longer sound
				src = nil
			}
		}
		return true
	})
	if count == 1 && src != nil {
		aliases[exprKey(src)] = true
	}
	return aliases, count <= 1
}

// isNilGuarded walks outward from call looking for a dominating nil
// guard on any alias of recv.
func isNilGuarded(pass *Pass, par parentMap, recv ast.Expr, call *ast.CallExpr) bool {
	aliases, stable := recvAliases(pass, par, recv)
	child := ast.Node(call)
	for n := par[child]; n != nil; child, n = n, par[n] {
		switch v := n.(type) {
		case *ast.IfStmt:
			// Inside the then-branch of `if X != nil`?
			if v.Body == child && condImpliesNonNil(v.Cond, aliases, true) {
				return true
			}
			// Inside the else-branch of `if X == nil { ... } else { ... }`?
			if v.Else == child && condImpliesNonNil(v.Cond, aliases, false) {
				return true
			}
		case *ast.BlockStmt:
			// Scan earlier statements of this block for a terminating
			// `if X == nil { return }` guard.
			for _, st := range v.List {
				if containsNode(st, child) {
					break
				}
				ifs, ok := st.(*ast.IfStmt)
				if !ok || ifs.Else != nil {
					continue
				}
				if condImpliesNonNil(ifs.Cond, aliases, false) && terminates(ifs.Body) {
					return true
				}
			}
		case *ast.FuncLit:
			// A guard outside a closure only holds inside it for a
			// stable single-assignment local; a field or reassigned
			// variable could change between guard and call.
			if !stable {
				return false
			}
		case *ast.FuncDecl:
			return false // top of the function chain
		}
	}
	return false
}

// condImpliesNonNil reports whether cond proves a guarded alias is
// non-nil when the condition evaluates to `sense` (true for the
// then-branch of X != nil, false meaning "cond false implies non-nil",
// i.e. X == nil guards).
func condImpliesNonNil(cond ast.Expr, aliases map[string]bool, sense bool) bool {
	switch v := cond.(type) {
	case *ast.BinaryExpr:
		if sense && v.Op == token.LAND {
			return condImpliesNonNil(v.X, aliases, true) || condImpliesNonNil(v.Y, aliases, true)
		}
		if !sense && v.Op == token.LOR {
			// `if X == nil || Y { exit }` falls through only when every
			// disjunct is false, X == nil among them.
			return condImpliesNonNil(v.X, aliases, false) || condImpliesNonNil(v.Y, aliases, false)
		}
		var want token.Token
		if sense {
			want = token.NEQ
		} else {
			want = token.EQL
		}
		if v.Op != want {
			return false
		}
		return (aliases[exprKey(v.X)] && isNilIdent(v.Y)) || (aliases[exprKey(v.Y)] && isNilIdent(v.X))
	case *ast.ParenExpr:
		return condImpliesNonNil(v.X, aliases, sense)
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func containsNode(root, target ast.Node) bool {
	if root == target {
		return true
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// terminates reports whether a guard body always exits the enclosing
// flow (return, continue, break, panic, goto).
func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		return isTerminatingCall(last.X)
	}
	return false
}

// guardFix offers a machine-applicable remediation when the unguarded
// call is a standalone statement: wrap it in `if X != nil { ... }`.
func guardFix(pass *Pass, par parentMap, recv ast.Expr, call *ast.CallExpr, _ int) *TextEdit {
	stmt, ok := par[call].(*ast.ExprStmt)
	if !ok {
		return nil
	}
	if _, ok := par[stmt].(*ast.BlockStmt); !ok {
		return nil
	}
	src := nodeSource(pass, call)
	if src == "" {
		return nil
	}
	return &TextEdit{
		Pos:     stmt.Pos(),
		End:     stmt.End(),
		NewText: "if " + nodeSource(pass, recv) + " != nil {\n" + src + "\n}",
	}
}

// nodeSource renders a node from the original file bytes.
func nodeSource(pass *Pass, n ast.Node) string {
	pos := pass.Fset.Position(n.Pos())
	end := pass.Fset.Position(n.End())
	if pos.Filename == "" || pos.Filename != end.Filename {
		return ""
	}
	data, err := readFileCached(pos.Filename)
	if err != nil || end.Offset > len(data) || pos.Offset > end.Offset {
		return ""
	}
	return string(data[pos.Offset:end.Offset])
}
