// hotalloc: per-node work in the kernel hot loops must not allocate —
// a make/new, an escaping composite literal, or an fmt call inside a
// loop that runs once per step (or worse, once per node) turns the
// memory-bandwidth-bound kernels the paper measures into GC benchmarks.
// Reachability is computed from the per-step roots (Step, timeStep,
// sweep) over static calls plus module-interface dispatch (a core.Probe
// sink invoked from a kernel loop is on the hot path too).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotAlloc flags allocation in loops reachable from the per-step path.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "no make/new, escaping composite literals, or fmt calls inside loops " +
		"reachable from the per-step path (Step/timeStep/sweep): allocation in the " +
		"kernel hot loops defeats the paper's locality design",
	RunModule: runHotAlloc,
}

func runHotAlloc(mp *ModulePass) []Diagnostic {
	g := newCallGraph(mp.Pkgs)
	var diags []Diagnostic
	for fd := range hotReachable(g) {
		collectHotAllocs(fd, g.infos[fd], &diags)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

// callGraph indexes every function declaration of the loaded packages by
// its types object, with the type information of the declaring package.
type callGraph struct {
	decls map[types.Object]*ast.FuncDecl
	infos map[*ast.FuncDecl]*types.Info
}

func newCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{decls: map[types.Object]*ast.FuncDecl{}, infos: map[*ast.FuncDecl]*types.Info{}}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					g.infos[fd] = pkg.Info
					if obj := pkg.Info.Defs[fd.Name]; obj != nil {
						g.decls[obj] = fd
					}
				}
			}
		}
	}
	return g
}

// resolveCallee maps a static call to its module-internal declaration,
// or nil (interface dispatch, closures, the standard library).
func (g *callGraph) resolveCallee(call *ast.CallExpr, info *types.Info) *ast.FuncDecl {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return g.decls[obj]
	}
	return nil
}

// hotReachable is the set of declarations with a body reachable from the
// per-step roots (every function or method named Step, timeStep or sweep)
// over static calls and interface dispatch: a call through an interface
// reaches every module method of that name whose receiver implements it.
func hotReachable(g *callGraph) map[*ast.FuncDecl]bool {
	implsByName := map[string][]*ast.FuncDecl{}
	for obj, fd := range g.decls {
		if fd.Recv != nil {
			implsByName[obj.Name()] = append(implsByName[obj.Name()], fd)
		}
	}
	reachable := map[*ast.FuncDecl]bool{}
	var queue []*ast.FuncDecl
	push := func(fd *ast.FuncDecl) {
		if fd != nil && fd.Body != nil && !reachable[fd] {
			reachable[fd] = true
			queue = append(queue, fd)
		}
	}
	for obj, fd := range g.decls {
		switch obj.Name() {
		case "Step", "timeStep", "sweep":
			push(fd)
		}
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		info := g.infos[fd]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := g.resolveCallee(call, info); callee != nil {
				push(callee)
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if iface := interfaceOf(info.TypeOf(sel.X)); iface != nil {
					for _, impl := range implsByName[sel.Sel.Name] {
						if g.implements(impl, iface) {
							push(impl)
						}
					}
				}
			}
			return true
		})
	}
	return reachable
}

func interfaceOf(t types.Type) *types.Interface {
	if t == nil {
		return nil
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
		return iface
	}
	return nil
}

func (g *callGraph) implements(impl *ast.FuncDecl, iface *types.Interface) bool {
	if len(impl.Recv.List) == 0 {
		return false
	}
	rt := g.infos[impl].TypeOf(impl.Recv.List[0].Type)
	return rt != nil && types.Implements(rt, iface)
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

// collectHotAllocs flags allocating expressions inside fd's loops.
func collectHotAllocs(fd *ast.FuncDecl, info *types.Info, diags *[]Diagnostic) {
	var walk func(n ast.Node, loops int)
	walk = func(n ast.Node, loops int) {
		switch v := n.(type) {
		case nil:
			return
		case *ast.ForStmt:
			walkChildren(v, func(c ast.Node) { walk(c, loops+1) })
			return
		case *ast.RangeStmt:
			walkChildren(v, func(c ast.Node) { walk(c, loops+1) })
			return
		case *ast.CallExpr:
			if loops > 0 {
				switch calleeName(v) {
				case "make", "new":
					*diags = append(*diags, Diagnostic{Check: "hotalloc", Pos: v.Pos(),
						Message: calleeName(v) + " inside a per-step hot loop allocates every iteration; hoist the buffer out of the loop"})
				}
				if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok {
						if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
							*diags = append(*diags, Diagnostic{Check: "hotalloc", Pos: v.Pos(),
								Message: "fmt." + sel.Sel.Name + " inside a per-step hot loop allocates and formats every iteration; move formatting off the kernel path"})
						}
					}
				}
			}
		case *ast.UnaryExpr:
			if loops > 0 && v.Op == token.AND {
				if _, ok := v.X.(*ast.CompositeLit); ok {
					*diags = append(*diags, Diagnostic{Check: "hotalloc", Pos: v.Pos(),
						Message: "escaping composite literal inside a per-step hot loop heap-allocates every iteration"})
				}
			}
		case *ast.FuncLit:
			// A closure defined in a loop is itself an allocation; its body
			// is walked at the definition's loop depth.
			if loops > 0 {
				*diags = append(*diags, Diagnostic{Check: "hotalloc", Pos: v.Pos(),
					Message: "closure constructed inside a per-step hot loop allocates every iteration; define it once outside"})
			}
		}
		walkChildren(n, func(c ast.Node) { walk(c, loops) })
	}
	walk(fd.Body, 0)
}

func walkChildren(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}
