package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockCheck proves the mutex discipline of the module: every
// sync.Mutex/RWMutex acquisition (including a successful TryLock) must
// be released on every control-flow path out of the acquiring function,
// and nested acquisitions across the package must not form an ordering
// cycle. On the engines' step paths it guards par.Barrier's
// Wait/WaitRank, which lock on every crossing; off them, the mutexes of
// the profiles, recorder rings and registries.
//
// The path model is intentionally simple: lock identity is the
// canonical spelling of the receiver with indices wildcarded
// (s.locks[_]), and held-sets are propagated through if/else, loops,
// switch and select with a merge that requires agreement. Hand-over-hand
// locking is inside the model (the held-set agrees at every merge); a
// scheme whose release is data-dependent is not, and would carry a
// reviewed //lint:allow lockcheck with the manual proof — the module has
// none.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "mutexes must be released on all paths; lock acquisition order must be acyclic",
	Run:  runLockCheck,
}

type lockOp int

const (
	opNone lockOp = iota
	opAcquire
	opRelease
	opTryAcquire
)

// classifyLockCall inspects a call expression and returns the operation
// and canonical lock key, or opNone.
func classifyLockCall(pass *Pass, call *ast.CallExpr) (lockOp, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	var op lockOp
	var read bool
	switch sel.Sel.Name {
	case "Lock":
		op = opAcquire
	case "RLock":
		op, read = opAcquire, true
	case "Unlock":
		op = opRelease
	case "RUnlock":
		op, read = opRelease, true
	case "TryLock":
		op = opTryAcquire
	case "TryRLock":
		op, read = opTryAcquire, true
	default:
		return opNone, ""
	}
	if !isSyncLockRecv(pass, sel) {
		return opNone, ""
	}
	key := exprKey(sel.X)
	if read {
		key += "#r"
	}
	return op, key
}

// isSyncLockRecv reports whether the selector resolves to a method of
// sync.Mutex or sync.RWMutex (including promoted embeddings). Without
// type information (fuzz mode) it accepts the call by name.
func isSyncLockRecv(pass *Pass, sel *ast.SelectorExpr) bool {
	if pass.Pkg != nil && pass.Pkg.Info != nil {
		if s, ok := pass.Pkg.Info.Selections[sel]; ok {
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				return false
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				return false
			}
			name := namedTypeName(recv.Type())
			pkg := fn.Pkg()
			return pkg != nil && pkg.Path() == "sync" && (name == "Mutex" || name == "RWMutex")
		}
		// A resolved selection that is not in Selections (e.g. a
		// package-qualified function) is not a method call.
		if t := pass.TypeOf(sel.X); t != nil && t != types.Typ[types.Invalid] {
			return false
		}
	}
	return true // no type info: judge by name
}

// lockState maps held lock keys to their acquisition position.
type lockState map[string]token.Pos

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockState) keys() []string {
	ks := make([]string, 0, len(s))
	for k := range s {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sameState(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func stateDiff(a, b lockState) []string {
	var diff []string
	for k := range a {
		if _, ok := b[k]; !ok {
			diff = append(diff, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	return diff
}

// lockEdge is one observed nested acquisition: to was locked while from
// was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

type lockWalker struct {
	pass     *Pass
	diags    []Diagnostic
	deferred map[string]bool
	edges    *[]lockEdge
	// loop stack for continue/break state checks
	loops []*loopCtx
	// reported caps duplicate diagnostics per (kind, key) in a function.
	reported map[string]bool
}

type loopCtx struct {
	entry  lockState
	breaks []lockState
	// infinite marks `for {}` loops, which exit only via break.
	infinite bool
}

func runLockCheck(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	var edges []lockEdge
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, analyzeLockFunc(pass, fd.Body, &edges)...)
		}
	}
	diags = append(diags, lockOrderCycles(edges)...)
	return diags
}

// analyzeLockFunc runs the held-set interpretation over one function
// body (and, recursively, every function literal it contains).
func analyzeLockFunc(pass *Pass, body *ast.BlockStmt, edges *[]lockEdge) []Diagnostic {
	w := &lockWalker{
		pass:     pass,
		deferred: make(map[string]bool),
		edges:    edges,
		reported: make(map[string]bool),
	}
	// Pre-scan for deferred releases anywhere in the body (a defer in a
	// conditional still runs at function exit if reached; treating it as
	// unconditional keeps the analysis from flagging guarded defers).
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(body) {
			return true // scan everything; nested lits analyzed separately below
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		w.recordDeferred(ds.Call)
		return true
	})
	out, terminated := w.stmtList(body.List, make(lockState))
	if !terminated {
		for _, k := range out.keys() {
			if !w.deferred[k] {
				w.report(out[k], "lockcheck:end:"+k,
					fmt.Sprintf("lock %s is still held when the function returns (acquired here); release it on every path or defer the unlock", k))
			}
		}
	}
	return w.diags
}

// recordDeferred registers defer targets: a direct Unlock call or any
// Unlock calls inside a deferred closure.
func (w *lockWalker) recordDeferred(call *ast.CallExpr) {
	if op, key := classifyLockCall(w.pass, call); op == opRelease {
		w.deferred[key] = true
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if op, key := classifyLockCall(w.pass, c); op == opRelease {
					w.deferred[key] = true
				}
			}
			return true
		})
	}
}

func (w *lockWalker) report(pos token.Pos, dedupKey, msg string) {
	if w.reported[dedupKey] {
		return
	}
	w.reported[dedupKey] = true
	w.diags = append(w.diags, Diagnostic{Check: "lockcheck", Pos: pos, Message: msg})
}

// acquire applies a lock acquisition to the state, recording ordering
// edges and self-deadlocks.
func (w *lockWalker) acquire(state lockState, key string, pos token.Pos) {
	if _, held := state[key]; held && !strings.HasSuffix(key, "#r") {
		w.report(pos, "lockcheck:self:"+key,
			fmt.Sprintf("lock %s acquired while already held on this path (self-deadlock with sync.Mutex)", key))
		return
	}
	for h := range state {
		if h != key {
			*w.edges = append(*w.edges, lockEdge{from: h, to: key, pos: pos})
		}
	}
	state[key] = pos
}

// stmtList interprets a statement sequence, returning the out-state and
// whether the sequence terminates (return/panic/branch on all paths).
func (w *lockWalker) stmtList(list []ast.Stmt, state lockState) (lockState, bool) {
	for _, st := range list {
		var term bool
		state, term = w.stmt(st, state)
		if term {
			return state, true
		}
	}
	return state, false
}

func (w *lockWalker) stmt(st ast.Stmt, state lockState) (lockState, bool) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		w.exprEffects(s.X, state)
		return state, isTerminatingCall(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.exprEffects(e, state)
		}
		return state, false
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.diags = append(w.diags, analyzeLockFunc(w.pass, lit.Body, w.edges)...)
				return false
			}
			return true
		})
		return state, false
	case *ast.DeferStmt:
		// Deferred releases were pre-registered; a deferred closure is
		// analyzed as its own function for its internal discipline.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.diags = append(w.diags, analyzeLockFunc(w.pass, lit.Body, w.edges)...)
		}
		return state, false
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.diags = append(w.diags, analyzeLockFunc(w.pass, lit.Body, w.edges)...)
		}
		return state, false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.exprEffects(e, state)
		}
		for _, k := range state.keys() {
			if !w.deferred[k] {
				w.report(s.Pos(), "lockcheck:return:"+k,
					fmt.Sprintf("return while holding lock %s with no deferred unlock", k))
			}
		}
		return state, true
	case *ast.BranchStmt:
		switch s.Tok {
		case token.CONTINUE:
			if lc := w.innerLoop(); lc != nil {
				if !sameState(state, lc.entry) {
					w.reportLoopMismatch(s.Pos(), state, lc.entry)
				}
			}
			return state, true
		case token.BREAK:
			if lc := w.innerLoop(); lc != nil {
				lc.breaks = append(lc.breaks, state.clone())
			}
			return state, true
		default: // goto, fallthrough: treat conservatively as flow-through
			return state, s.Tok == token.GOTO
		}
	case *ast.BlockStmt:
		return w.stmtList(s.List, state)
	case *ast.IfStmt:
		return w.ifStmt(s, state)
	case *ast.ForStmt:
		return w.forStmt(s, state)
	case *ast.RangeStmt:
		return w.rangeStmt(s, state)
	case *ast.SwitchStmt:
		if s.Init != nil {
			state, _ = w.stmt(s.Init, state)
		}
		return w.caseBodies(switchBodies(s.Body), hasDefault(s.Body), state)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			state, _ = w.stmt(s.Init, state)
		}
		return w.caseBodies(switchBodies(s.Body), hasDefault(s.Body), state)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		// A select blocks until some case runs; treat like a switch with
		// a default (some branch always taken).
		return w.caseBodies(bodies, true, state)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, state)
	default:
		return state, false
	}
}

// exprEffects applies lock operations appearing directly as calls in e
// and analyzes any function literals as independent functions.
func (w *lockWalker) exprEffects(e ast.Expr, state lockState) {
	switch v := e.(type) {
	case *ast.CallExpr:
		switch op, key := classifyLockCall(w.pass, v); op {
		case opAcquire, opTryAcquire:
			// A TryLock whose result is discarded or assigned is treated
			// as an acquisition (the success path owns the lock).
			w.acquire(state, key, v.Pos())
			return
		case opRelease:
			delete(state, key)
			return
		}
		for _, arg := range v.Args {
			w.exprEffects(arg, state)
		}
		w.exprEffects(v.Fun, state)
	case *ast.FuncLit:
		w.diags = append(w.diags, analyzeLockFunc(w.pass, v.Body, w.edges)...)
	case *ast.ParenExpr:
		w.exprEffects(v.X, state)
	case *ast.UnaryExpr:
		w.exprEffects(v.X, state)
	case *ast.BinaryExpr:
		w.exprEffects(v.X, state)
		w.exprEffects(v.Y, state)
	case *ast.SelectorExpr, *ast.Ident, *ast.BasicLit:
		// no effects
	case *ast.IndexExpr:
		w.exprEffects(v.X, state)
		w.exprEffects(v.Index, state)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			w.exprEffects(el, state)
		}
	case *ast.KeyValueExpr:
		w.exprEffects(v.Value, state)
	}
}

func (w *lockWalker) ifStmt(s *ast.IfStmt, state lockState) (lockState, bool) {
	if s.Init != nil {
		state, _ = w.stmt(s.Init, state)
	}
	thenState := state.clone()
	elseState := state.clone()

	// `if mu.TryLock() { ... }` — the then-branch owns the lock;
	// `if !mu.TryLock() { ... }` — the else path owns it.
	cond := s.Cond
	negated := false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, negated = u.X, true
	}
	if call, ok := cond.(*ast.CallExpr); ok {
		if op, key := classifyLockCall(w.pass, call); op == opTryAcquire {
			if negated {
				w.acquire(elseState, key, call.Pos())
			} else {
				w.acquire(thenState, key, call.Pos())
			}
		} else {
			w.exprEffects(s.Cond, state)
		}
	} else {
		w.exprEffects(s.Cond, state)
	}

	thenOut, thenTerm := w.stmtList(s.Body.List, thenState)
	elseOut, elseTerm := elseState, false
	if s.Else != nil {
		elseOut, elseTerm = w.stmt(s.Else, elseState)
	}
	switch {
	case thenTerm && elseTerm:
		return thenOut, true
	case thenTerm:
		return elseOut, false
	case elseTerm:
		return thenOut, false
	}
	if !sameState(thenOut, elseOut) {
		diff := stateDiff(thenOut, elseOut)
		w.report(s.Pos(), "lockcheck:branch:"+strings.Join(diff, ","),
			fmt.Sprintf("lock %s held on one branch of this if but not the other at the join point", strings.Join(diff, ", ")))
	}
	return thenOut, false
}

func (w *lockWalker) forStmt(s *ast.ForStmt, state lockState) (lockState, bool) {
	if s.Init != nil {
		state, _ = w.stmt(s.Init, state)
	}
	if s.Cond != nil {
		w.exprEffects(s.Cond, state)
	}
	lc := &loopCtx{entry: state.clone(), infinite: s.Cond == nil}
	w.loops = append(w.loops, lc)
	bodyOut, bodyTerm := w.stmtList(s.Body.List, state.clone())
	w.loops = w.loops[:len(w.loops)-1]
	if !bodyTerm && !sameState(bodyOut, lc.entry) {
		w.reportLoopMismatch(s.Pos(), bodyOut, lc.entry)
	}
	return w.loopExit(lc, bodyTerm)
}

func (w *lockWalker) rangeStmt(s *ast.RangeStmt, state lockState) (lockState, bool) {
	w.exprEffects(s.X, state)
	lc := &loopCtx{entry: state.clone()}
	w.loops = append(w.loops, lc)
	bodyOut, bodyTerm := w.stmtList(s.Body.List, state.clone())
	w.loops = w.loops[:len(w.loops)-1]
	if !bodyTerm && !sameState(bodyOut, lc.entry) {
		w.reportLoopMismatch(s.Pos(), bodyOut, lc.entry)
	}
	return w.loopExit(lc, bodyTerm)
}

// loopExit merges the loop's possible exit states: the entry state (a
// conditional loop may run zero times) and every break state.
func (w *lockWalker) loopExit(lc *loopCtx, bodyTerm bool) (lockState, bool) {
	exits := lc.breaks
	if !lc.infinite {
		exits = append(exits, lc.entry)
	}
	if len(exits) == 0 {
		// for {} with no break: never falls through.
		return lc.entry, true
	}
	first := exits[0]
	for _, e := range exits[1:] {
		if !sameState(first, e) {
			w.report(first.keys1Pos(e), "lockcheck:loopexit",
				fmt.Sprintf("lock %s held on some exits of this loop but not others", strings.Join(stateDiff(first, e), ", ")))
			break
		}
	}
	return first, false
}

// keys1Pos picks a stable position for a loop-exit mismatch report.
func (s lockState) keys1Pos(other lockState) token.Pos {
	for _, k := range s.keys() {
		return s[k]
	}
	for _, k := range other.keys() {
		return other[k]
	}
	return token.NoPos
}

func (w *lockWalker) reportLoopMismatch(pos token.Pos, got, want lockState) {
	diff := stateDiff(got, want)
	w.report(pos, "lockcheck:loop:"+strings.Join(diff, ","),
		fmt.Sprintf("lock %s is acquired and released asymmetrically across loop iterations", strings.Join(diff, ", ")))
}

func (w *lockWalker) innerLoop() *loopCtx {
	if len(w.loops) == 0 {
		return nil
	}
	return w.loops[len(w.loops)-1]
}

// caseBodies interprets switch/select branches; all live branch
// out-states (plus the fall-past state when no default exists) must
// agree.
func (w *lockWalker) caseBodies(bodies [][]ast.Stmt, exhaustive bool, state lockState) (lockState, bool) {
	var live []lockState
	allTerm := len(bodies) > 0
	for _, b := range bodies {
		out, term := w.stmtList(b, state.clone())
		if !term {
			live = append(live, out)
			allTerm = false
		}
	}
	if !exhaustive {
		live = append(live, state)
		allTerm = false
	}
	if len(live) == 0 {
		return state, allTerm
	}
	for _, l := range live[1:] {
		if !sameState(live[0], l) {
			w.report(live[0].keys1Pos(l), "lockcheck:switch",
				fmt.Sprintf("lock %s held after some switch/select branches but not others", strings.Join(stateDiff(live[0], l), ", ")))
			break
		}
	}
	return live[0], allTerm
}

func switchBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var bodies [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			bodies = append(bodies, cc.Body)
		}
	}
	return bodies
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// isTerminatingCall recognizes panic and the handful of never-return
// calls that end a path.
func isTerminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		name := fn.Sel.Name
		if x, ok := fn.X.(*ast.Ident); ok {
			if x.Name == "os" && name == "Exit" {
				return true
			}
			if x.Name == "log" && strings.HasPrefix(name, "Fatal") {
				return true
			}
		}
	}
	return false
}

// lockOrderCycles finds strongly connected components in the package's
// lock-acquisition graph and reports each cycle once.
func lockOrderCycles(edges []lockEdge) []Diagnostic {
	adj := make(map[string][]lockEdge)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}
	// Tarjan SCC.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var counter int
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			wv := e.to
			if _, seen := index[wv]; !seen {
				strongconnect(wv)
				if low[wv] < low[v] {
					low[v] = low[wv]
				}
			} else if onStack[wv] && index[wv] < low[v] {
				low[v] = index[wv]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				n := len(stack) - 1
				wv := stack[n]
				stack = stack[:n]
				onStack[wv] = false
				scc = append(scc, wv)
				if wv == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	var nodes []string
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}

	var diags []Diagnostic
	for _, scc := range sccs {
		in := make(map[string]bool, len(scc))
		for _, n := range scc {
			in[n] = true
		}
		sort.Strings(scc)
		// Report at the first edge inside the component.
		var pos token.Pos
		for _, e := range edges {
			if in[e.from] && in[e.to] {
				if pos == token.NoPos || e.pos < pos {
					pos = e.pos
				}
			}
		}
		diags = append(diags, Diagnostic{
			Check: "lockcheck",
			Pos:   pos,
			Message: fmt.Sprintf("lock acquisition order cycle between %s: nested acquisitions must follow one global owner order",
				strings.Join(scc, " and ")),
		})
	}
	return diags
}
