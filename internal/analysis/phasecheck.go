// Phase linearization for the fusibility analysis: each engine's
// per-step function is flattened into an alternating sequence of
// segments (kernel phases, with abstractly interpreted effect
// summaries) and sync items (barrier sites and parallel-region joins),
// with barrier-site activation conditions parsed from the guarding
// source expressions. phasereport.go turns the sequences into
// happens-before windows and verdicts.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"unicode"
)

// scenario is one fixed assignment of the engine's feature guards.
type scenario struct {
	name   string
	guards map[string]bool
}

func (sc scenario) guard(name string) bool { return sc.guards[name] }

// sitePred evaluates a barrier site's activation condition under a
// scenario; nil means unconditionally active.
type sitePred func(sc scenario) bool

// item is one element of a linearized step: a segment or a sync.
type item struct {
	// segment fields
	seg     bool
	name    string // phase name (segment) or site name (sync)
	effects []Effect

	// sync fields
	reported bool // a named barrier site of the report (vs a region join)
	cond     sitePred
	condStr  string // printable activation condition ("" = always)
	pos      token.Pos
}

// linearizer flattens step functions into item sequences.
type linearizer struct {
	w    *effectWalker
	pkg  *Package
	errs []Diagnostic
}

// segBuilder accumulates effects for the segment under construction.
type segBuilder struct {
	items []item
	name  string
	part  string
	cur   []Effect
}

func (b *segBuilder) setPhase(name, part string) {
	b.flush()
	b.name, b.part = name, part
}

func (b *segBuilder) add(effs []Effect) { b.cur = append(b.cur, effs...) }

func (b *segBuilder) flush() {
	if len(b.cur) > 0 || b.name != "" {
		b.items = append(b.items, item{seg: true, name: b.name, effects: b.cur})
		b.cur = nil
	}
}

func (b *segBuilder) site(name string, reported bool, cond sitePred, condStr string, pos token.Pos) {
	n := b.name // keep the phase name across the split (collide|stream)
	b.flush()
	b.items = append(b.items, item{name: name, reported: reported, cond: cond, condStr: condStr, pos: pos})
	b.name = n
}

// siteNameOf converts a barrier-site constant identifier (SiteAfterSpread,
// cubesolver.SiteEndOfStep) to its report name (after_spread, end_of_step).
func siteNameOf(arg ast.Expr) string {
	var id string
	switch v := arg.(type) {
	case *ast.Ident:
		id = v.Name
	case *ast.SelectorExpr:
		id = v.Sel.Name
	default:
		return ""
	}
	id = strings.TrimPrefix(id, "Site")
	var b strings.Builder
	for i, r := range id {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(r))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// phaseNameOf maps the cube engine's Phase constants to the phase names
// the profiler and perfsim report (cubesolver.Phase.String()).
var cubePhaseNames = map[string]struct{ name, part string }{
	"PhaseFibersForce":    {"fiber_force_spread", "fiber"},
	"PhaseCollideStream":  {"collide_stream", "cube"},
	"PhaseUpdateVelocity": {"update_velocity", "cube"},
	"PhaseMoveFibers":     {"move_fibers", "fiber"},
	"PhaseCopy":           {"swap_distribution", "cube"},
}

// ompKernels maps the omp engine's kernel constants to segment and
// region-join site names, in Algorithm 1 order.
var ompKernels = map[string]struct{ phase, site, part string }{
	"KComputeBendingForce":    {"bend_force", "after_bend", "fiber"},
	"KComputeStretchingForce": {"stretch_force", "after_stretch", "fiber"},
	"KComputeElasticForce":    {"elastic_force", "after_elastic", "fiber"},
	"KSpreadForce":            {"spread_force", "after_spread", "fiber"},
	"KComputeCollision":       {"collide", "after_collide", "xslab"},
	"KStreamDistribution":     {"stream", "after_stream", "xslab"},
	"KUpdateVelocity":         {"update_velocity", "after_update", "xslab"},
	"KMoveFibers":             {"move_fibers", "after_move", "fiber"},
	"KCopyDistribution":       {"copy_swap", "after_copy", "xslab"},
}

func constName(arg ast.Expr) string {
	switch v := arg.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// condPred parses a barrier activation condition into a scenario
// predicate, inlining single-return helper methods
// (spreadBarrierNeeded). Unrecognized atoms evaluate to true (the site
// is conservatively treated as active).
func (l *linearizer) condPred(e ast.Expr, depth int) (sitePred, string) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return l.condPred(v.X, depth)
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			p, s := l.condPred(v.X, depth)
			return func(sc scenario) bool { return !p(sc) }, "!" + s
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LOR:
			a, as := l.condPred(v.X, depth)
			b, bs := l.condPred(v.Y, depth)
			return func(sc scenario) bool { return a(sc) || b(sc) }, as + " || " + bs
		case token.LAND:
			a, as := l.condPred(v.X, depth)
			b, bs := l.condPred(v.Y, depth)
			return func(sc scenario) bool { return a(sc) && b(sc) }, as + " && " + bs
		}
		s := exprString(v)
		switch {
		case strings.Contains(s, "TotalFibers"):
			pos := v.Op == token.GTR || v.Op == token.NEQ
			return func(sc scenario) bool { return sc.guard("fibers") == pos }, "fibers"
		case strings.Contains(s, "Size() > 1") || strings.Contains(s, "Threads > 1"):
			return func(sc scenario) bool { return sc.guard("multi") }, "multi"
		}
	case *ast.CallExpr:
		// Inline a module helper with a single return statement.
		if fn := l.w.resolveCallee(v, l.pkg.Info); fn != nil && depth < 4 && fn.Body != nil && len(fn.Body.List) == 1 {
			if ret, ok := fn.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				return l.condPred(ret.Results[0], depth+1)
			}
		}
	}
	// Unknown (e.g. instrumentation toggles): always active.
	return func(scenario) bool { return true }, ""
}

// containsBarrier reports whether fn's body (directly) calls waitBarrier.
func containsBarrier(fn *ast.FuncDecl) bool {
	if fn == nil || fn.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && calleeName(c) == "waitBarrier" {
			found = true
		}
		return !found
	})
	return found
}

// newStepCtx is the interpretation context a per-step worker body starts
// in: cur/next parity conventionally bound, tid a coordinate.
func newStepCtx(ambient Extent, part string) *effectCtx {
	return &effectCtx{
		ambient: ambient,
		slots:   map[string]Slot{"cur": SlotCur, "next": SlotNext, "p0": SlotCur},
		coords:  map[string]bool{"tid": true, "lo": true, "hi": true},
		guards:  map[string]bool{},
		part:    part,
	}
}

// siteCond combines the guard context a barrier site was reached under
// (a site inside a guarded arm of a spliced helper only exists when the
// guard holds) with the site's own activation predicate.
func siteCond(ctx *effectCtx, extra sitePred, extraStr string) (sitePred, string) {
	if len(ctx.guards) == 0 {
		return extra, extraStr
	}
	guards := make(map[string]bool, len(ctx.guards))
	var names []string
	for g, v := range ctx.guards {
		guards[g] = v
		if v {
			names = append(names, g)
		} else {
			names = append(names, "!"+g)
		}
	}
	sort.Strings(names)
	str := strings.Join(names, " && ")
	if extraStr != "" {
		str += " && " + extraStr
	}
	pred := func(sc scenario) bool {
		for g, v := range guards {
			if sc.guards[g] != v {
				return false
			}
		}
		return extra == nil || extra(sc)
	}
	return pred, str
}

// linearizeBody flattens a statement list that may contain phase()
// wrappers, waitBarrier calls, and calls into barrier-containing
// helpers. Used for cubesolver.timeStep, fused.sweep, and generic
// fixture step methods.
func (l *linearizer) linearizeBody(b *segBuilder, stmts []ast.Stmt, info *astInfo, ctx *effectCtx) {
	for i := 0; i < len(stmts); i++ {
		st := stmts[i]
		switch s := st.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				b.add(l.effectsOf(func(out *[]Effect) { l.w.expr(s.X, info.info, ctx, false, out) }))
				continue
			}
			switch calleeName(call) {
			case "phase":
				if len(call.Args) == 2 {
					if pn, ok := cubePhaseNames[constName(call.Args[0])]; ok {
						b.setPhase(pn.name, pn.part)
						ctx2 := ctx.clone()
						ctx2.part = pn.part
						if fl, ok := call.Args[1].(*ast.FuncLit); ok {
							l.spliceOrWalk(b, fl.Body.List, info, ctx2)
						}
						continue
					}
				}
				b.add(l.callEffects(call, info, ctx))
			case "waitBarrier":
				if len(call.Args) >= 1 {
					pred, str := siteCond(ctx, nil, "")
					b.site(siteNameOf(call.Args[0]), true, pred, str, call.Pos())
					continue
				}
			case "ParallelFor", "parallelFor":
				// A region whose closure contains barriers (the fused
				// sweep) is spliced statement-by-statement; region entry
				// and exit are sync points (fork/join).
				if len(call.Args) == 2 {
					if fl, ok := call.Args[1].(*ast.FuncLit); ok && bodyContainsBarrier(fl.Body) {
						ctx2 := ctx.clone()
						ctx2.ambient = ExtOwn
						ctx2.part = regionPart(call.Args[0])
						for _, f := range fl.Type.Params.List {
							for _, p := range f.Names {
								ctx2.coords[p.Name] = true
							}
						}
						l.linearizeBody(b, fl.Body.List, info, ctx2)
						continue
					}
				}
				b.add(l.callEffects(call, info, ctx))
			default:
				// A helper whose body contains a barrier is spliced inline;
				// everything else is effect-walked.
				if fn := l.w.resolveCallee(call, info.info); fn != nil && containsBarrier(fn) {
					ctx2 := l.bindCallCtx(fn, call, info, ctx)
					l.linearizeBody(b, fn.Body.List, info, ctx2)
					continue
				}
				b.add(l.callEffects(call, info, ctx))
			}
		case *ast.IfStmt:
			// if <cond> { waitBarrier(Site, tid) } → conditional site.
			if site, ok := singleBarrier(s.Body); ok && s.Else == nil {
				pred, str := l.condPred(s.Cond, 0)
				pred, str = siteCond(ctx, pred, str)
				b.site(siteNameOf(site.Args[0]), true, pred, str, site.Pos())
				continue
			}
			// Guarded region that itself contains barriers: splice both
			// arms under their guards.
			if bodyContainsBarrier(s.Body) {
				if g, ok := l.w.guardAtom(s.Cond, info.info); ok {
					l.linearizeBody(b, s.Body.List, info, ctx.withGuard(g.name, g.val))
					neg := ctx.withGuard(g.name, !g.val)
					if endsInJump(s.Body) && s.Else == nil {
						l.linearizeBody(b, stmts[i+1:], info, neg)
						return
					}
					if s.Else != nil {
						l.linearizeBody(b, []ast.Stmt{s.Else}, info, neg)
					}
					continue
				}
				l.linearizeBody(b, s.Body.List, info, ctx)
				continue
			}
			b.add(l.effectsOf(func(out *[]Effect) { l.w.stmt(s, info.info, ctx, out) }))
		case *ast.AssignStmt:
			// Skip the phase-helper closure binding; interpret the rest
			// (which also threads parity/coordinate bindings into ctx).
			if len(s.Lhs) == 1 && exprString(s.Lhs[0]) == "phase" {
				continue
			}
			b.add(l.effectsOf(func(out *[]Effect) { l.w.assign(s, info.info, ctx, out) }))
		case *ast.BlockStmt:
			l.linearizeBody(b, s.List, info, ctx)
		case *ast.ReturnStmt:
			return
		default:
			b.add(l.effectsOf(func(out *[]Effect) { l.w.stmt(st, info.info, ctx, out) }))
		}
	}
}

// spliceOrWalk interprets a phase closure's statements, splicing any
// helper call whose body contains barrier waits.
func (l *linearizer) spliceOrWalk(b *segBuilder, stmts []ast.Stmt, info *astInfo, ctx *effectCtx) {
	for _, st := range stmts {
		if es, ok := st.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if fn := l.w.resolveCallee(call, info.info); fn != nil && containsBarrier(fn) {
					ctx2 := l.bindCallCtx(fn, call, info, ctx)
					l.linearizeBody(b, fn.Body.List, info, ctx2)
					continue
				}
			}
		}
		b.add(l.effectsOf(func(out *[]Effect) { l.w.stmt(st, info.info, ctx, out) }))
	}
}

// bindCallCtx builds the callee's context, binding parameter names to
// argument slots and coordinate taints (the parity-threading that makes
// the analysis parity-aware).
func (l *linearizer) bindCallCtx(fn *ast.FuncDecl, call *ast.CallExpr, info *astInfo, ctx *effectCtx) *effectCtx {
	c2 := ctx.clone()
	c2.depth++
	if fn.Type.Params != nil {
		i := 0
		for _, fld := range fn.Type.Params.List {
			for _, pname := range fld.Names {
				if i < len(call.Args) {
					if s := l.w.slotOf(call.Args[i], ctx); s != SlotNone {
						c2.slots[pname.Name] = s
					} else {
						delete(c2.slots, pname.Name)
					}
					if l.w.isCoordExpr(call.Args[i], ctx) || isIntLiteral(call.Args[i]) {
						c2.coords[pname.Name] = true
					}
				}
				i++
			}
		}
	}
	return c2
}

func (l *linearizer) effectsOf(f func(out *[]Effect)) []Effect {
	var out []Effect
	f(&out)
	return out
}

func (l *linearizer) callEffects(call *ast.CallExpr, info *astInfo, ctx *effectCtx) []Effect {
	var out []Effect
	l.w.call(call, info.info, ctx, &out)
	return out
}

// singleBarrier matches a block whose only statement is a waitBarrier
// call.
func singleBarrier(b *ast.BlockStmt) (*ast.CallExpr, bool) {
	if len(b.List) != 1 {
		return nil, false
	}
	es, ok := b.List[0].(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || calleeName(call) != "waitBarrier" || len(call.Args) == 0 {
		return nil, false
	}
	return call, true
}

func bodyContainsBarrier(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && calleeName(c) == "waitBarrier" {
			found = true
		}
		return !found
	})
	return found
}

// regionPart names the partition of a parallel region from its bound
// expression: fiber loops iterate TotalFibers, fluid loops iterate NX.
func regionPart(bound ast.Expr) string {
	if strings.Contains(exprString(bound), "TotalFibers") {
		return "fiber"
	}
	return "xslab"
}

// astInfo wraps the package's type info for the linearizer's helpers.
type astInfo struct{ info *types.Info }
