package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// BarrierCheck proves the barrier choreography of Algorithm 4: a global
// barrier only works if every thread reaches it, so inside the worker
// loops of the parallel engines (cubesolver, fused, omp, par)
// a barrier Wait/Arrive must never be control-dependent on a
// thread-varying condition, divergent branches must contain the same
// number of barrier sites, and no thread-dependent early exit may skip
// a barrier site. Uniform conditions (schedule flags, config fields)
// are fine: every thread computes the same value, so the team diverges
// together.
//
// Thread-varying is approximated by name: the thread-id parameters the
// runtime hands workers (tid, rank, worker, me, threadID, waiter) and
// any local derived from one.
var BarrierCheck = &Analyzer{
	Name: "barriercheck",
	Doc:  "barrier waits must be unconditional per thread and match across branches",
	Scope: func(pkgPath string) bool {
		for _, p := range []string{
			"internal/cubesolver", "internal/fused", "internal/omp", "internal/par",
		} {
			if hasSuffixPath(pkgPath, p) {
				return true
			}
		}
		return false
	},
	Run: runBarrierCheck,
}

// threadVarNames are the identifiers treated as thread-varying seeds.
var threadVarNames = map[string]bool{
	"tid": true, "rank": true, "worker": true, "me": true,
	"threadID": true, "waiter": true,
}

// isBarrierCall reports whether a call synchronizes on a barrier:
// Wait/Arrive on a *Barrier-named receiver type, or a call to a
// function whose name mentions "barrier" (the solvers' waitBarrier
// wrappers). Constructors and recorders are excluded — they are not
// barriers; neither is a barrier-arrival event, which reaches its sink
// through Probe.Emit.
func isBarrierCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	recvType := namedTypeName(pass.TypeOf(sel.X))
	if name == "Wait" || name == "Arrive" {
		if strings.Contains(recvType, "Barrier") {
			return true
		}
		if recvType == "" && strings.Contains(strings.ToLower(exprKey(sel.X)), "barrier") {
			return true // no type info (fuzz mode): judge by spelling
		}
		return false
	}
	lower := strings.ToLower(name)
	if !strings.Contains(lower, "barrier") {
		return false
	}
	if strings.HasPrefix(name, "New") || strings.Contains(lower, "record") {
		return false
	}
	return true
}

func runBarrierCheck(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, barrierCheckUnit(pass, fd.Type, fd.Body)...)
			// Function literals are their own worker units.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					diags = append(diags, barrierCheckUnit(pass, lit.Type, lit.Body)...)
				}
				return true
			})
		}
	}
	return diags
}

// countBarriers counts barrier sites in the subtree, not descending
// into nested function literals.
func countBarriers(pass *Pass, root ast.Node) int {
	if root == nil {
		return 0
	}
	n := 0
	ast.Inspect(root, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false // nested literals are separate units
		}
		if call, ok := node.(*ast.CallExpr); ok && isBarrierCall(pass, call) {
			n++
		}
		return true
	})
	return n
}

// barrierCheckUnit analyzes one function-shaped unit.
func barrierCheckUnit(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) []Diagnostic {
	if countBarriers(pass, body) == 0 {
		return nil
	}
	tv := threadVars(pass, ftype, body)
	w := &barrierWalker{pass: pass, tv: tv, body: body}
	w.walk(body, 0)
	return w.diags
}

// threadVars collects the objects (by identifier) considered
// thread-varying in this unit: named parameters in threadVarNames plus
// locals assigned from expressions mentioning one (two propagation
// rounds cover the chains that occur in practice).
func threadVars(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) map[string]bool {
	tv := make(map[string]bool)
	if ftype != nil && ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				if threadVarNames[name.Name] {
					tv[name.Name] = true
				}
			}
		}
	}
	for n := range threadVarNames {
		tv[n] = true // seeds apply to any scope (captured outer params)
	}
	for round := 0; round < 2; round++ {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) == 0 {
				return true
			}
			varying := false
			for _, rhs := range as.Rhs {
				if mentionsThreadVar(rhs, tv) {
					varying = true
				}
			}
			if !varying {
				return true
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					tv[id.Name] = true
				}
			}
			return true
		})
	}
	return tv
}

func mentionsThreadVar(e ast.Expr, tv map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.Ident:
			if tv[v.Name] {
				found = true
			}
		case *ast.SelectorExpr:
			// A field selection x.f is varying only through its base.
			ast.Inspect(v.X, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && tv[id.Name] {
					found = true
				}
				return !found
			})
			return false
		case *ast.FuncLit:
			return false
		}
		return !found
	})
	return found
}

type barrierWalker struct {
	pass  *Pass
	tv    map[string]bool
	body  *ast.BlockStmt
	diags []Diagnostic
	// loopsWithBarriers tracks enclosing loops that contain barrier
	// sites, for the early-exit rule.
	loopBarriers []bool
}

// walk traverses statements; depth counts enclosing thread-varying
// conditions.
func (w *barrierWalker) walk(n ast.Node, varyingDepth int) {
	switch s := n.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.walk(st, varyingDepth)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walk(s.Init, varyingDepth)
		}
		w.checkExprCalls(s.Cond, varyingDepth)
		varying := mentionsThreadVar(s.Cond, w.tv)
		d := varyingDepth
		if varying {
			d++
			thenN := countBarriers(w.pass, s.Body)
			elseN := countBarriers(w.pass, s.Else)
			if thenN != elseN {
				w.diags = append(w.diags, Diagnostic{
					Check: "barriercheck",
					Pos:   s.Pos(),
					Message: fmt.Sprintf("barrier site count differs across this thread-varying branch (%d vs %d): threads would arrive at different barriers and deadlock or desynchronize",
						thenN, elseN),
				})
			}
		}
		w.walk(s.Body, d)
		if s.Else != nil {
			w.walk(s.Else, d)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walk(s.Init, varyingDepth)
		}
		d := varyingDepth
		if s.Cond != nil && mentionsThreadVar(s.Cond, w.tv) {
			d++
		}
		w.pushLoop(s.Body)
		w.walk(s.Body, d)
		w.popLoop()
	case *ast.RangeStmt:
		d := varyingDepth
		if mentionsThreadVar(s.X, w.tv) {
			d++
		}
		w.pushLoop(s.Body)
		w.walk(s.Body, d)
		w.popLoop()
	case *ast.SwitchStmt:
		d := varyingDepth
		if s.Tag != nil && mentionsThreadVar(s.Tag, w.tv) {
			d++
		}
		w.walk(s.Body, d)
	case *ast.TypeSwitchStmt:
		w.walk(s.Body, varyingDepth)
	case *ast.CaseClause:
		for _, st := range s.Body {
			w.walk(st, varyingDepth)
		}
	case *ast.SelectStmt:
		w.walk(s.Body, varyingDepth)
	case *ast.CommClause:
		for _, st := range s.Body {
			w.walk(st, varyingDepth)
		}
	case *ast.LabeledStmt:
		w.walk(s.Stmt, varyingDepth)
	case *ast.ReturnStmt:
		if varyingDepth > 0 {
			w.diags = append(w.diags, Diagnostic{
				Check:   "barriercheck",
				Pos:     s.Pos(),
				Message: "thread-dependent return exits a function containing barrier sites: the remaining barriers would deadlock waiting for this thread",
			})
		}
	case *ast.BranchStmt:
		if varyingDepth > 0 && (s.Tok == token.BREAK || s.Tok == token.CONTINUE) && w.innerLoopHasBarrier() {
			w.diags = append(w.diags, Diagnostic{
				Check:   "barriercheck",
				Pos:     s.Pos(),
				Message: fmt.Sprintf("thread-dependent %s inside a loop containing barrier sites: threads would make unequal numbers of barrier visits", s.Tok),
			})
		}
	case *ast.ExprStmt:
		w.checkExprCalls(s.X, varyingDepth)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExprCalls(e, varyingDepth)
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// Nested literals are separate units; nothing to do here.
	case *ast.DeclStmt:
		// no barrier calls possible outside function literals
	}
}

// checkExprCalls flags barrier calls appearing under a thread-varying
// control dependence. Function literals are skipped (separate units).
func (w *barrierWalker) checkExprCalls(e ast.Expr, varyingDepth int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBarrierCall(w.pass, call) {
			return true
		}
		if varyingDepth > 0 {
			w.diags = append(w.diags, Diagnostic{
				Check:   "barriercheck",
				Pos:     call.Pos(),
				Message: "barrier wait is control-dependent on a thread-varying condition: every thread must reach every barrier site unconditionally",
			})
		}
		return true
	})
}

func (w *barrierWalker) pushLoop(body *ast.BlockStmt) {
	w.loopBarriers = append(w.loopBarriers, countBarriers(w.pass, body) > 0)
}

func (w *barrierWalker) popLoop() {
	w.loopBarriers = w.loopBarriers[:len(w.loopBarriers)-1]
}

func (w *barrierWalker) innerLoopHasBarrier() bool {
	if len(w.loopBarriers) == 0 {
		return false
	}
	return w.loopBarriers[len(w.loopBarriers)-1]
}
