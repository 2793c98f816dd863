// Expression and call interpretation for the phase-effect engine: field
// classification, parity-aware Buf resolution, intrinsic models for the
// IB kernels, and depth-limited inlining of module-internal callees.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// relevantField maps a selector on a module type to the effect-field
// vocabulary; "" means the access carries no cross-phase meaning.
func (w *effectWalker) relevantField(sel *ast.SelectorExpr, info *types.Info) string {
	t := info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	switch namedTypeName(t) {
	case "Node":
		switch sel.Sel.Name {
		case "DF", "DFNew", "Vel", "Rho", "Force":
			return "node." + sel.Sel.Name
		}
	case "Sheet":
		switch sel.Sel.Name {
		case "X", "Vel", "BendForce", "StretchForce", "Force", "Fixed":
			return "sheet." + sel.Sel.Name
		}
	case "SpreadAccum":
		return "accum"
	case "Dist32":
		if sel.Sel.Name == "buf" || sel.Sel.Name == "bufs" {
			return "node.DF"
		}
	}
	return ""
}

// expr records the effects of evaluating e; write marks e as an
// assignment target.
func (w *effectWalker) expr(e ast.Expr, info *types.Info, ctx *effectCtx, write bool, out *[]Effect) {
	switch v := e.(type) {
	case nil:
	case *ast.Ident, *ast.BasicLit:
	case *ast.ParenExpr:
		w.expr(v.X, info, ctx, write, out)
	case *ast.StarExpr:
		w.expr(v.X, info, ctx, write, out)
	case *ast.UnaryExpr:
		w.expr(v.X, info, ctx, write && v.Op == token.AND, out)
	case *ast.SelectorExpr:
		if f := w.relevantField(v, info); f != "" {
			// g.Nodes[i+1].Vel reaches a neighbor: the element index
			// under the selector carries the extent.
			ext := w.nodeExprExtent(v.X, ctx)
			c2 := ctx
			if ext != ctx.ambient {
				c2 = ctx.clone()
				c2.ambient = ext
			}
			w.emit(out, c2, f, write, SlotNone, v.Pos())
		}
		w.expr(v.X, info, ctx, false, out)
	case *ast.IndexExpr:
		// node.DF[i] / sheet.X[i] / Nodes[idx].F — extent comes from the
		// index and from the element expression under the selector
		// (g.Nodes[i+1].Vel[0]: the [0] is a component, the [i+1] is the
		// reach).
		if sel, ok := v.X.(*ast.SelectorExpr); ok {
			if f := w.relevantField(sel, info); f != "" {
				ext := maxExtent(w.indexExtent(v.Index, ctx), w.nodeExprExtent(sel.X, ctx))
				c2 := ctx
				if ext != ctx.ambient {
					c2 = ctx.clone()
					c2.ambient = ext
				}
				slot := SlotNone
				if f == "node.DF" {
					// Direct DF[i] access: parity-opaque (paritycheck owns
					// the accessor-layer contract); treat as cur.
					slot = SlotCur
				}
				w.emit(out, c2, f, write, slot, v.Pos())
				w.expr(v.Index, info, ctx, false, out)
				w.expr(sel.X, info, ctx, false, out)
				return
			}
			// Nodes[idx]: the element extent contexts later selectors.
			if sel.Sel.Name == "Nodes" {
				ext := w.indexExtent(v.Index, ctx)
				w.expr(v.Index, info, ctx, false, out)
				_ = ext
				return
			}
		}
		w.expr(v.X, info, ctx, write, out)
		w.expr(v.Index, info, ctx, false, out)
	case *ast.BinaryExpr:
		w.expr(v.X, info, ctx, false, out)
		w.expr(v.Y, info, ctx, false, out)
	case *ast.CallExpr:
		w.call(v, info, ctx, out)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			w.expr(el, info, ctx, false, out)
		}
	case *ast.FuncLit:
		w.block(v.Body, info, ctx, out)
	case *ast.SliceExpr:
		w.expr(v.X, info, ctx, write, out)
	case *ast.TypeAssertExpr:
		w.expr(v.X, info, ctx, false, out)
	case *ast.KeyValueExpr:
		w.expr(v.Value, info, ctx, false, out)
	}
}

func (w *effectWalker) emit(out *[]Effect, ctx *effectCtx, field string, write bool, slot Slot, pos token.Pos) {
	ext := ctx.ambient
	// Accumulation-buffer accesses are per-thread private except the
	// owner-ordered reduction's all-threads sweep, which the ReduceSpread
	// intrinsic emits at ExtAll.
	if field == "accum" && ext != ExtAll {
		ext = ExtPrivate
	}
	*out = append(*out, Effect{Field: field, Write: write, Extent: ext, Slot: slot,
		Part: ctx.part, Guards: ctx.guards, Pos: pos})
}

// nodeExprExtent classifies the node a method is invoked on / a field is
// read through, from the receiver expression (&l.Nodes[idx], nodes[i]).
func (w *effectWalker) nodeExprExtent(e ast.Expr, ctx *effectCtx) Extent {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return w.nodeExprExtent(v.X, ctx)
	case *ast.UnaryExpr:
		return w.nodeExprExtent(v.X, ctx)
	case *ast.IndexExpr:
		return w.indexExtent(v.Index, ctx)
	case *ast.SelectorExpr:
		return w.nodeExprExtent(v.X, ctx)
	}
	return ctx.ambient
}

// call interprets a call: intrinsics first, then module-internal
// inlining with parity/coordinate binding, then the interface axiom
// (observer and stdlib calls have no phase effects).
func (w *effectWalker) call(call *ast.CallExpr, info *types.Info, ctx *effectCtx, out *[]Effect) {
	name := calleeName(call)
	switch name {
	case "Cur":
		w.emit(out, ctx, "parity", false, SlotNone, call.Pos())
		return
	case "Swap":
		w.emit(out, ctx, "parity", true, SlotNone, call.Pos())
		return
	case "Buf":
		// n.Buf(e): a distribution access whose parity is e's slot and
		// whose extent is the receiver node's.
		slot := SlotCur
		if len(call.Args) == 1 {
			if s := w.slotOf(call.Args[0], ctx); s != SlotNone {
				slot = s
			}
		}
		ext := ctx.ambient
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			ext = w.nodeExprExtent(sel.X, ctx)
		}
		c2 := ctx
		if ext != ctx.ambient {
			c2 = ctx.clone()
			c2.ambient = ext
		}
		// Buf returns a pointer used for both loads and stores; record
		// both and let the conflict rules pair them.
		w.emit(out, c2, "node.DF", true, slot, call.Pos())
		w.emit(out, c2, "node.DF", false, slot, call.Pos())
		return
	case "Interpolate", "InterpolateStencil":
		// IB velocity gather: reads node.Vel over the delta support.
		g := ctx.clone()
		g.ambient = ExtGather
		w.emit(out, g, "node.Vel", false, SlotNone, call.Pos())
		for _, a := range call.Args {
			w.expr(a, info, ctx, false, out)
		}
		return
	case "Spread", "SpreadStencil":
		// IB force scatter of one stencil: the fiber arguments are read,
		// and the accumulator — ibm.Spread's first argument, the receiver
		// of an accumulator's own SpreadStencil — is written over the
		// delta support.
		for _, a := range call.Args {
			w.expr(a, info, ctx, false, out)
		}
		acc := firstArg(call)
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && name == "SpreadStencil" {
			acc = sel.X
		}
		w.scatter(acc, info, ctx, call.Pos(), out)
		return
	case "SpreadSheetNodes":
		// Kernel 4's shared body: reads own fiber nodes' position and
		// force, scatters through the accumulator passed at this call
		// site (inside the body it is only an interface value).
		w.emit(out, ctx, "sheet.X", false, SlotNone, call.Pos())
		w.emit(out, ctx, "sheet.Force", false, SlotNone, call.Pos())
		w.scatter(firstArg(call), info, ctx, call.Pos(), out)
		return
	case "ReduceSpread":
		// The owner-ordered reduction: sweeps every thread's buffers for
		// one block (the all-threads read) and folds them into the
		// block's own nodes.
		if len(call.Args) == 4 {
			all := ctx.clone()
			all.ambient = ExtAll
			w.emit(out, all, "accum", false, SlotNone, call.Pos())
			w.emit(out, ctx, "accum", false, SlotNone, call.Pos())
			c2 := ctx.clone()
			c2.ambient = w.nodeExprExtent(call.Args[1], ctx)
			w.emit(out, c2, "node.Force", true, SlotNone, call.Pos())
			return
		}
	case "Block":
		// core.Streamer.Block(b, cur): kernel 6's push body. It reads the
		// block's own nodes (density for the moving lid), writes bounced
		// values back into them, and writes the neighbours' — possibly
		// other blocks' — post-streaming buffer. Buffers are reached
		// through Buf pointers, so each access counts as load and store,
		// the same convention the Buf intrinsic uses.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) == 2 &&
			namedTypeName(info.TypeOf(sel.X)) == "Streamer" {
			cur := SlotCur
			if s := w.slotOf(call.Args[1], ctx); s != SlotNone {
				cur = s
			}
			own := ctx.clone()
			own.ambient = maxExtent(ctx.ambient, ExtOwn)
			nb := ctx.clone()
			nb.ambient = ExtNeighbor
			for _, write := range []bool{false, true} {
				w.emit(out, own, "node.DF", write, cur, call.Pos())
				w.emit(out, own, "node.DF", write, flip(cur), call.Pos())
				w.emit(out, nb, "node.DF", write, flip(cur), call.Pos())
			}
			w.emit(out, own, "node.Rho", false, SlotNone, call.Pos())
			return
		}
	case "CollideRange":
		ext := ctx.ambient
		if len(call.Args) > 0 {
			ext = w.nodeExprExtent(call.Args[0], ctx)
		}
		slot := SlotCur
		if len(call.Args) == 3 {
			if s := w.slotOf(call.Args[2], ctx); s != SlotNone {
				slot = s
			}
		}
		c2 := ctx.clone()
		c2.ambient = ext
		w.emit(out, c2, "node.DF", false, slot, call.Pos())
		w.emit(out, c2, "node.DF", true, slot, call.Pos())
		w.emit(out, c2, "node.Rho", false, SlotNone, call.Pos())
		w.emit(out, c2, "node.Vel", false, SlotNone, call.Pos())
		w.emit(out, c2, "node.Force", false, SlotNone, call.Pos())
		return
	case "UpdateRange":
		ext := ctx.ambient
		if len(call.Args) > 0 {
			ext = w.nodeExprExtent(call.Args[0], ctx)
		}
		slot := SlotNext
		if len(call.Args) == 3 {
			if s := w.slotOf(call.Args[1], ctx); s != SlotNone {
				slot = s
			}
		}
		c2 := ctx.clone()
		c2.ambient = ext
		w.emit(out, c2, "node.DF", false, slot, call.Pos())
		w.emit(out, c2, "node.Force", false, SlotNone, call.Pos())
		w.emit(out, c2, "node.Rho", true, SlotNone, call.Pos())
		w.emit(out, c2, "node.Vel", true, SlotNone, call.Pos())
		if len(call.Args) == 3 && !isNil(call.Args[2]) {
			// The folded force reset.
			w.emit(out, c2, "node.Force", true, SlotNone, call.Pos())
		}
		return
	case "MoveSheetNodes":
		// Kernel 8: gathers fluid velocity, writes own fiber nodes.
		g := ctx.clone()
		g.ambient = ExtGather
		w.emit(out, g, "node.Vel", false, SlotNone, call.Pos())
		w.emit(out, ctx, "sheet.X", false, SlotNone, call.Pos())
		w.emit(out, ctx, "sheet.X", true, SlotNone, call.Pos())
		w.emit(out, ctx, "sheet.Vel", true, SlotNone, call.Pos())
		return
	case "Moments", "Collide", "Equilibrium", "GuoForce", "AreaElement", "Locate",
		"TotalFibers", "FiberToThread", "CubeToThread", "Size", "Now", "Since",
		"len", "cap", "make", "append", "float64", "float32", "int", "panic":
		// Address-of arguments are out-parameters (Moments writes the
		// velocity through &n.Vel, Collide the distribution array it is
		// handed); everything else is a read.
		for _, a := range call.Args {
			un, addr := a.(*ast.UnaryExpr)
			w.expr(a, info, ctx, addr && un.Op == token.AND, out)
		}
		return
	case "parallelFor", "ParallelFor":
		// A parallel region: the closure runs on workers over its own
		// chunk of the bound. Fiber-bounded regions are empty without a
		// structure.
		if len(call.Args) == 2 {
			if fl, ok := call.Args[1].(*ast.FuncLit); ok {
				c2 := ctx.clone()
				c2.ambient = ExtOwn
				c2.part = regionPart(call.Args[0])
				if c2.part == "fiber" {
					c2.guards["fibers"] = true
				}
				for _, f := range fl.Type.Params.List {
					for _, p := range f.Names {
						c2.coords[p.Name] = true
					}
				}
				w.block(fl.Body, info, c2, out)
				return
			}
		}
	case "forOwnedCubes", "forSlabs":
		// Algorithm 4's owned-cube visitor and the slab engine's x-slab
		// region: the closure's parameters are own-partition coordinates.
		if n := len(call.Args); n >= 1 {
			if fl, ok := call.Args[n-1].(*ast.FuncLit); ok {
				c2 := ctx.clone()
				c2.ambient = maxExtent(c2.ambient, ExtOwn)
				c2.part = "cube"
				if name == "forSlabs" {
					c2.ambient, c2.part = ExtOwn, "xslab"
				}
				for _, f := range fl.Type.Params.List {
					for _, p := range f.Names {
						c2.coords[p.Name] = true
					}
				}
				w.block(fl.Body, info, c2, out)
				return
			}
		}
	case "ForFibers", "forOwnedFibers", "forFibers":
		// Fiber visitors: the closure sees own (sheet, node-range)
		// pieces and is empty without a structure. forFibers is the slab
		// engine's parallel region over them.
		if n := len(call.Args); n >= 1 {
			if fl, ok := call.Args[n-1].(*ast.FuncLit); ok {
				c2 := ctx.clone()
				c2.part = "fiber"
				if name == "forFibers" {
					c2.ambient = ExtOwn
				}
				c2.guards["fibers"] = true
				for _, f := range fl.Type.Params.List {
					for _, p := range f.Names {
						c2.coords[p.Name] = true
					}
				}
				w.block(fl.Body, info, c2, out)
				return
			}
		}
	}

	// Module-internal callee: inline with bindings.
	if fn := w.resolveCallee(call, info); fn != nil {
		c2 := ctx.clone()
		c2.depth++
		// Bind parameter names to argument slots/coordinate taints.
		if fn.Type.Params != nil {
			i := 0
			for _, fld := range fn.Type.Params.List {
				for _, pname := range fld.Names {
					if i < len(call.Args) {
						if s := w.slotOf(call.Args[i], ctx); s != SlotNone {
							c2.slots[pname.Name] = s
						}
						if w.isCoordExpr(call.Args[i], ctx) || isIntLiteral(call.Args[i]) {
							c2.coords[pname.Name] = true
						}
					}
					i++
				}
			}
		}
		for _, a := range call.Args {
			w.expr(a, info, ctx, false, out)
			// FuncLit args (the phase/run wrappers, forOwnedCubes bodies)
			// are interpreted at the call site by expr above.
		}
		*out = append(*out, w.funcEffects(fn, c2)...)
		return
	}

	// Unresolvable: interface dispatch (observers — the no-effect axiom,
	// DESIGN.md §16) or stdlib. Arguments are still evaluated.
	for _, a := range call.Args {
		w.expr(a, info, ctx, false, out)
	}
}

// firstArg returns the call's first argument, nil without one.
func firstArg(call *ast.CallExpr) ast.Expr {
	if len(call.Args) == 0 {
		return nil
	}
	return call.Args[0]
}

// scatter records a spread through the ibm.ForceAccumulator acc: a
// write of node.Force over the delta support (grid.Coupling behind a
// slab grid or cube layout, and the conservative model of any other
// accumulator), plus the worker's private buffers for core.SpreadAccum.
func (w *effectWalker) scatter(acc ast.Expr, info *types.Info, ctx *effectCtx, pos token.Pos, out *[]Effect) {
	g := ctx.clone()
	g.ambient = ExtGather
	if acc != nil && namedTypeName(info.TypeOf(acc)) == "SpreadAccum" {
		// SpreadStencil stores through a pointer chosen between the
		// worker's private buffer and — for blocks the worker owns — the
		// grid itself; both destinations are stated.
		w.emit(out, g, "accum", false, SlotNone, pos)
		w.emit(out, g, "accum", true, SlotNone, pos)
	}
	w.emit(out, g, "node.Force", true, SlotNone, pos)
}

// resolveCallee maps a call to its module-internal declaration, or nil.
func (w *effectWalker) resolveCallee(call *ast.CallExpr, info *types.Info) *ast.FuncDecl {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		return nil
	}
	return w.idx[obj]
}
