// Phase-effect engine: abstract interpretation of kernel-phase bodies
// over the go/parser+go/types pipeline, producing per-phase effect
// summaries — which grid/fiber fields are read and written, at what
// stencil extent, and (for the double-buffered distributions) at which
// parity slot. phasecheck.go consumes the summaries to classify barrier
// sites as required or fusible (DESIGN.md §16).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Extent is the cross-thread reach of one field access, ordered from
// provably-private to provably-shared.
type Extent int

const (
	// ExtPrivate: per-thread storage no other thread reads in the same
	// window (the spread accumulation buffers).
	ExtPrivate Extent = iota
	// ExtSerial: executed outside any parallel region, on the
	// coordinating goroutine.
	ExtSerial
	// ExtThread0: executed by worker 0 only (the swap in the cube copy
	// loop).
	ExtThread0
	// ExtOwn: touches only elements of the accessing thread's own
	// partition.
	ExtOwn
	// ExtNeighbor: reaches ±1 partition element past the thread's own
	// (the streaming stencil).
	ExtNeighbor
	// ExtGather: reaches a bounded but position-dependent window (the
	// 4³ IB delta-function support).
	ExtGather
	// ExtAll: reads or writes every thread's data (the owner-ordered
	// reduction sweeping all accumulation buffers).
	ExtAll
)

var extentNames = [...]string{"private", "serial", "thread0", "local", "neighbor", "gather", "all-threads"}

func (e Extent) String() string { return extentNames[e] }

// Slot is the distribution-buffer parity of a DF access.
type Slot int

const (
	SlotNone Slot = iota // not a distribution access / parity-independent
	SlotCur              // the step's present buffer
	SlotNext             // the step's post-streaming buffer
)

func (s Slot) String() string {
	switch s {
	case SlotCur:
		return "cur"
	case SlotNext:
		return "next"
	}
	return ""
}

// Effect is one field access of a phase body.
type Effect struct {
	Field  string // "node.DF", "node.Vel", "sheet.X", "accum", "parity", ...
	Write  bool
	Extent Extent
	Slot   Slot
	// Part names the data partition an ExtOwn access is aligned to
	// ("cube", "xslab", "fiber"): own×own accesses conflict only across
	// partitions (every schedule is static).
	Part string
	// Guards names the feature toggles that must be on (value true) or
	// off for the access to execute; phasecheck drops effects whose
	// guards a scenario falsifies.
	Guards map[string]bool
	Pos    token.Pos
}

// FieldSlot renders the field with its parity slot, the spelling the
// fusibility report uses ("node.DF[next]").
func (e Effect) FieldSlot() string {
	if e.Slot == SlotNone {
		return e.Field
	}
	return e.Field + "[" + e.Slot.String() + "]"
}

// effectCtx is the abstract state a function body is interpreted under.
type effectCtx struct {
	ambient Extent          // extent of unclassified accesses in this body
	part    string          // partition ExtOwn accesses align to
	slots   map[string]Slot // parity bindings: local/param name → slot
	coords  map[string]bool // identifiers proven to be own-partition coordinates
	fibvars map[string]bool // identifiers holding the structure's fiber count
	guards  map[string]bool // feature-toggle context accumulated from branches
	depth   int
}

func (c *effectCtx) clone() *effectCtx {
	n := &effectCtx{ambient: c.ambient, part: c.part, depth: c.depth,
		slots:   make(map[string]Slot, len(c.slots)),
		coords:  make(map[string]bool, len(c.coords)),
		fibvars: make(map[string]bool, len(c.fibvars)),
		guards:  make(map[string]bool, len(c.guards))}
	for k, v := range c.slots {
		n.slots[k] = v
	}
	for k, v := range c.coords {
		n.coords[k] = v
	}
	for k, v := range c.fibvars {
		n.fibvars[k] = v
	}
	for k, v := range c.guards {
		n.guards[k] = v
	}
	return n
}

func (c *effectCtx) withGuard(name string, val bool) *effectCtx {
	n := c.clone()
	n.guards[name] = val
	return n
}

// funcIndex maps function/method objects to their declarations across
// every loaded package, so the effect walker can inline callees.
type funcIndex map[types.Object]*ast.FuncDecl

func buildFuncIndex(pkgs []*Package) funcIndex {
	idx := make(funcIndex)
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					idx[obj] = fd
				}
			}
		}
	}
	return idx
}

// effectWalker interprets function bodies abstractly. One walker serves
// a whole module pass; per-call contexts carry the varying state.
type effectWalker struct {
	pkgs  []*Package
	idx   funcIndex
	infos map[*ast.FuncDecl]*types.Info
}

func newEffectWalker(pkgs []*Package) *effectWalker {
	w := &effectWalker{pkgs: pkgs, idx: buildFuncIndex(pkgs), infos: make(map[*ast.FuncDecl]*types.Info)}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					w.infos[fd] = pkg.Info
				}
			}
		}
	}
	return w
}

const maxInlineDepth = 14

// funcEffects interprets fn under ctx and returns its effects.
func (w *effectWalker) funcEffects(fn *ast.FuncDecl, ctx *effectCtx) []Effect {
	if fn == nil || fn.Body == nil || ctx.depth > maxInlineDepth {
		return nil
	}
	info := w.infos[fn]
	if info == nil {
		return nil
	}
	var out []Effect
	w.block(fn.Body, info, ctx, &out)
	return out
}

// block walks a statement list, splitting contexts at guard branches.
func (w *effectWalker) block(body *ast.BlockStmt, info *types.Info, ctx *effectCtx, out *[]Effect) {
	stmts := body.List
	for i := 0; i < len(stmts); i++ {
		switch st := stmts[i].(type) {
		case *ast.IfStmt:
			guard, ok := w.guardAtom(st.Cond, info)
			if ok {
				w.block(st.Body, info, ctx.withGuard(guard.name, guard.val), out)
				neg := ctx.withGuard(guard.name, !guard.val)
				if st.Else != nil {
					w.stmt(st.Else, info, neg, out)
				}
				// A guarded branch ending in continue/return diverts the
				// remaining statements to the negated guard.
				if endsInJump(st.Body) && st.Else == nil {
					for j := i + 1; j < len(stmts); j++ {
						w.stmt(stmts[j], info, neg, out)
					}
					return
				}
				continue
			}
			// tid == 0: thread-0-only body.
			if isTidZero(st.Cond) {
				t0 := ctx.clone()
				t0.ambient = ExtThread0
				w.block(st.Body, info, t0, out)
				if st.Else != nil {
					w.stmt(st.Else, info, ctx, out)
				}
				continue
			}
			w.stmt(st, info, ctx, out)
		default:
			w.stmt(st, info, ctx, out)
		}
	}
}

func endsInJump(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK
	}
	return false
}

type guardVal struct {
	name string
	val  bool
}

// guardAtom maps a branch condition onto a feature-toggle guard the
// scenario enumeration controls. Unrecognized conditions return !ok and
// the branch is interpreted under the unchanged context (both arms
// reachable — conservative).
func (w *effectWalker) guardAtom(cond ast.Expr, info *types.Info) (guardVal, bool) {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return w.guardAtom(c.X, info)
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			if g, ok := w.guardAtom(c.X, info); ok {
				return guardVal{g.name, !g.val}, true
			}
		}
	case *ast.Ident:
		if c.Name == "reduce" {
			// collideStreamLoop's reduce = fibers present.
			return guardVal{"fibers", true}, true
		}
	case *ast.SelectorExpr:
		if c.Sel.Name == "Float32" {
			return guardVal{"float32", true}, true
		}
	case *ast.BinaryExpr:
		s := exprString(c)
		switch {
		case strings.Contains(s, "TotalFibers") && (c.Op == token.GTR || c.Op == token.NEQ):
			return guardVal{"fibers", true}, true
		case strings.Contains(s, "TotalFibers") && c.Op == token.EQL:
			return guardVal{"fibers", false}, true
		case strings.Contains(s, "len") && strings.Contains(s, "Sheets") && c.Op == token.EQL:
			return guardVal{"fibers", false}, true
		case strings.Contains(s, "d32") && c.Op == token.NEQ && strings.Contains(s, "nil"):
			return guardVal{"float32", true}, true
		case strings.Contains(s, "d32") && c.Op == token.EQL && strings.Contains(s, "nil"):
			return guardVal{"float32", false}, true
		case strings.HasSuffix(s, "Threads == 1") || strings.Contains(s, "Size() == 1"):
			return guardVal{"multi", false}, true
		case strings.Contains(s, "Size() > 1") || strings.Contains(s, "Threads > 1"):
			return guardVal{"multi", true}, true
		case c.Op == token.LAND:
			// Compound: only the (guard && guard) shapes the solvers use.
			if l, ok := w.guardAtom(c.X, info); ok && l.val {
				if r, ok2 := w.guardAtom(c.Y, info); ok2 && r.val {
					// Approximate A&&B by the rarer toggle; the solvers'
					// compounds (reduce = lockfree && fibers) all have a
					// dominant atom listed first in rarity order.
					_ = l
					return r, true
				}
			}
		}
	}
	return guardVal{}, false
}

func isTidZero(cond ast.Expr) bool {
	b, ok := cond.(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL {
		return false
	}
	x, y := exprString(b.X), exprString(b.Y)
	return (x == "tid" && y == "0") || (x == "0" && y == "tid")
}

// stmt dispatches one statement.
func (w *effectWalker) stmt(s ast.Stmt, info *types.Info, ctx *effectCtx, out *[]Effect) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.block(st, info, ctx, out)
	case *ast.IfStmt:
		// Unrecognized condition: interpret both arms under ctx.
		w.expr(st.Cond, info, ctx, false, out)
		w.block(st.Body, info, ctx, out)
		if st.Else != nil {
			w.stmt(st.Else, info, ctx, out)
		}
	case *ast.ForStmt:
		c2 := ctx.clone()
		if st.Init != nil {
			if as, ok := st.Init.(*ast.AssignStmt); ok {
				w.assign(as, info, c2, out)
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						c2.coords[id.Name] = true
					}
				}
			}
		}
		if st.Cond != nil {
			w.expr(st.Cond, info, c2, false, out)
			// A loop bounded by the structure's fiber count is empty in
			// fluid-only runs: its body is guarded on fibers.
			if w.isFiberBound(st.Cond, ctx) {
				c2 = c2.withGuard("fibers", true)
			}
		}
		w.block(st.Body, info, c2, out)
	case *ast.RangeStmt:
		c2 := ctx.clone()
		if id, ok := st.Key.(*ast.Ident); ok && id.Name != "_" {
			c2.coords[id.Name] = true
		}
		w.expr(st.X, info, c2, false, out)
		w.block(st.Body, info, c2, out)
	case *ast.AssignStmt:
		w.assign(st, info, ctx, out)
	case *ast.ExprStmt:
		w.expr(st.X, info, ctx, false, out)
	case *ast.IncDecStmt:
		w.expr(st.X, info, ctx, true, out)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, info, ctx, false, out)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r, info, ctx, false, out)
		}
	case *ast.DeferStmt:
		w.call(st.Call, info, ctx, out)
	case *ast.GoStmt:
		w.call(st.Call, info, ctx, out)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, info, ctx, false, out)
				return false
			}
			return true
		})
	}
}

// assign records writes to the LHS and reads of the RHS, threading
// parity and coordinate bindings through simple x := ... forms.
func (w *effectWalker) assign(st *ast.AssignStmt, info *types.Info, ctx *effectCtx, out *[]Effect) {
	for _, r := range st.Rhs {
		w.expr(r, info, ctx, false, out)
	}
	// Bindings first: cur := ..., next := 1 - cur, coords, aliases.
	if len(st.Lhs) == len(st.Rhs) {
		for i, l := range st.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if sl := w.slotOf(st.Rhs[i], ctx); sl != SlotNone {
				ctx.slots[id.Name] = sl
			}
			if w.isCoordExpr(st.Rhs[i], ctx) {
				ctx.coords[id.Name] = true
			}
			if strings.Contains(exprString(st.Rhs[i]), "TotalFibers") {
				ctx.fibvars[id.Name] = true
			}
		}
	} else if len(st.Rhs) == 1 {
		// Multi-assign from a coordinate-producing call (CubeCoord, Wrap,
		// Resolve): bind each LHS with the call's coordinate taint.
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
			name := calleeName(call)
			coord := name == "CubeCoord" || name == "Wrap"
			for _, l := range st.Lhs {
				if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
					if coord && w.allCoordArgs(call, ctx) {
						ctx.coords[id.Name] = true
					}
					if name == "Resolve" {
						// bc.Resolve returns wrapped neighbor coordinates.
						delete(ctx.coords, id.Name)
					}
				}
			}
		}
	}
	for _, l := range st.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			if _, bound := ctx.slots[id.Name]; bound || id.Name == "_" {
				continue
			}
			if obj := info.Defs[id]; obj != nil && st.Tok == token.DEFINE {
				continue // fresh local, no shared effect
			}
		}
		w.expr(l, info, ctx, true, out)
	}
}

// slotOf computes the parity slot an expression denotes.
func (w *effectWalker) slotOf(e ast.Expr, ctx *effectCtx) Slot {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return w.slotOf(v.X, ctx)
	case *ast.Ident:
		return ctx.slots[v.Name]
	case *ast.CallExpr:
		if calleeName(v) == "Cur" {
			return SlotCur
		}
	case *ast.BinaryExpr:
		// 1 - cur / cur ^ 1 flip the slot.
		if s := w.slotOf(v.X, ctx); s != SlotNone {
			return flip(s)
		}
		if s := w.slotOf(v.Y, ctx); s != SlotNone {
			return flip(s)
		}
	}
	return SlotNone
}

func flip(s Slot) Slot {
	if s == SlotCur {
		return SlotNext
	}
	return SlotCur
}

// isCoordExpr reports whether e is an own-partition coordinate: a known
// coordinate identifier, or arithmetic that keeps the access inside the
// partition (scaling, div/mod, coord±coord).
func (w *effectWalker) isCoordExpr(e ast.Expr, ctx *effectCtx) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return ctx.coords[v.Name]
	case *ast.ParenExpr:
		return w.isCoordExpr(v.X, ctx)
	case *ast.BinaryExpr:
		switch v.Op {
		case token.MUL, token.QUO, token.REM:
			return w.isCoordExpr(v.X, ctx) || w.isCoordExpr(v.Y, ctx)
		case token.ADD, token.SUB:
			return w.isCoordExpr(v.X, ctx) && w.isCoordExpr(v.Y, ctx)
		}
	case *ast.CallExpr:
		switch calleeName(v) {
		case "Idx", "CubeIndex", "Wrap", "CubeOf", "CubeNodes":
			return w.allCoordArgs(v, ctx)
		}
	}
	return false
}

// isFiberBound reports whether a loop condition is bounded by the fiber
// count (directly or via a tracked local).
func (w *effectWalker) isFiberBound(cond ast.Expr, ctx *effectCtx) bool {
	s := exprString(cond)
	if strings.Contains(s, "TotalFibers") {
		return true
	}
	for v := range ctx.fibvars {
		if containsWord(s, v) {
			return true
		}
	}
	return false
}

func containsWord(s, w string) bool {
	for i := 0; i+len(w) <= len(s); i++ {
		if s[i:i+len(w)] != w {
			continue
		}
		beforeOK := i == 0 || !isWordByte(s[i-1])
		afterOK := i+len(w) == len(s) || !isWordByte(s[i+len(w)])
		if beforeOK && afterOK {
			return true
		}
	}
	return false
}

func isWordByte(b byte) bool {
	return b == '_' || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

func (w *effectWalker) allCoordArgs(call *ast.CallExpr, ctx *effectCtx) bool {
	for _, a := range call.Args {
		if isIntLiteral(a) {
			continue
		}
		if !w.isCoordExpr(a, ctx) {
			return false
		}
	}
	return true
}

func isIntLiteral(e ast.Expr) bool {
	b, ok := e.(*ast.BasicLit)
	return ok && b.Kind == token.INT
}

// indexExtent classifies an index expression's reach relative to the
// thread's own partition under ctx.
func (w *effectWalker) indexExtent(idx ast.Expr, ctx *effectCtx) Extent {
	if ctx.ambient == ExtGather || ctx.ambient == ExtAll {
		return ctx.ambient
	}
	if containsStreamDelta(idx) {
		return ExtNeighbor
	}
	if w.isCoordExpr(idx, ctx) {
		return maxExtent(ctx.ambient, ExtOwn)
	}
	switch v := idx.(type) {
	case *ast.BinaryExpr:
		if v.Op == token.ADD || v.Op == token.SUB {
			// coordinate ± non-coordinate: a stencil offset.
			return ExtNeighbor
		}
	case *ast.CallExpr:
		// Idx/Wrap over unresolved (e.g. bc.Resolve-produced) coords.
		return ExtNeighbor
	}
	return maxExtent(ctx.ambient, ExtOwn)
}

func containsStreamDelta(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "streamDelta" {
			found = true
		}
		return !found
	})
	return found
}

func maxExtent(a, b Extent) Extent {
	if a > b {
		return a
	}
	return b
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

func exprString(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch v := e.(type) {
	case *ast.Ident:
		b.WriteString(v.Name)
	case *ast.SelectorExpr:
		writeExpr(b, v.X)
		b.WriteByte('.')
		b.WriteString(v.Sel.Name)
	case *ast.BinaryExpr:
		writeExpr(b, v.X)
		b.WriteByte(' ')
		b.WriteString(v.Op.String())
		b.WriteByte(' ')
		writeExpr(b, v.Y)
	case *ast.UnaryExpr:
		b.WriteString(v.Op.String())
		writeExpr(b, v.X)
	case *ast.ParenExpr:
		b.WriteByte('(')
		writeExpr(b, v.X)
		b.WriteByte(')')
	case *ast.CallExpr:
		writeExpr(b, v.Fun)
		b.WriteString("(")
		for i, a := range v.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a)
		}
		b.WriteString(")")
	case *ast.IndexExpr:
		writeExpr(b, v.X)
		b.WriteByte('[')
		writeExpr(b, v.Index)
		b.WriteByte(']')
	case *ast.BasicLit:
		b.WriteString(v.Value)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, v.X)
	default:
		b.WriteByte('?')
	}
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
