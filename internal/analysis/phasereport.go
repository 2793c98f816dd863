// Happens-before analysis over linearized phase sequences: for every
// barrier site, under every configuration scenario, the effect windows
// on both sides are checked for cross-thread conflicts; verdicts roll up
// into the lbmib-fuse/v1 report and into phasecheck diagnostics
// (DESIGN.md §16).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"lbmib/internal/fusereport"
)

// engineSeq is one engine's linearized step plus its scenario space.
type engineSeq struct {
	name      string
	items     []item
	scenarios []scenario
	pkg       *Package
}

// conflict is one cross-thread ordering obligation spanning a site.
type conflict struct {
	field   string
	kind    string
	stencil string
	before  string
	after   string
}

func (c conflict) key() string {
	return c.field + "|" + c.kind + "|" + c.stencil + "|" + c.before + "|" + c.after
}

// activeIn reports whether an effect executes under a scenario.
func activeIn(e Effect, sc scenario) bool {
	for g, want := range e.Guards {
		if sc.guards[g] != want {
			return false
		}
	}
	return true
}

// winEffect is an effect placed in a window, with wrap normalization
// applied and its segment name attached.
type winEffect struct {
	Effect
	segName string
}

// window collects the live effects of the segments on one side of a
// site under one scenario. Walking wraps across the step boundary
// (steady-state cyclic model); wrapped distribution accesses flip their
// parity slot, because every engine swaps buffers at the end of a step:
// "cur" of the next step is "next" of this one.
func window(items []item, siteIdx, dir int, sc scenario) []winEffect {
	var out []winEffect
	n := len(items)
	wrapped := false
	for off := 1; off < 2*n; off++ {
		i := siteIdx + dir*off
		for i < 0 {
			i += n
			wrapped = true
		}
		for i >= n {
			i -= n
			wrapped = true
		}
		it := items[i]
		if !it.seg {
			if it.cond == nil || it.cond(sc) {
				return out // hit an active sync: window closed
			}
			continue
		}
		for _, e := range it.effects {
			if !activeIn(e, sc) {
				continue
			}
			we := winEffect{Effect: e, segName: it.name}
			if wrapped && we.Slot != SlotNone {
				if we.Slot == SlotCur {
					we.Slot = SlotNext
				} else {
					we.Slot = SlotCur
				}
			}
			out = append(out, we)
		}
	}
	return out
}

// crossThread reports whether accesses a and b may touch the same datum
// from different threads were the intervening sync removed.
func crossThread(a, b winEffect, sc scenario) bool {
	// Private stores conflict only with the all-threads reduction sweep.
	if a.Extent == ExtPrivate || b.Extent == ExtPrivate {
		other := b
		priv := a
		if b.Extent == ExtPrivate {
			priv, other = b, a
		}
		return priv.Write && other.Extent == ExtAll
	}
	// Serial-main effects are ordered against each other by program
	// order; against worker effects the removed sync was the ordering.
	if a.Extent == ExtSerial && b.Extent == ExtSerial {
		return false
	}
	if a.Extent == ExtSerial || b.Extent == ExtSerial {
		return true
	}
	// Thread 0 vs thread 0 is one thread.
	if a.Extent == ExtThread0 && b.Extent == ExtThread0 {
		return false
	}
	if a.Extent == ExtThread0 || b.Extent == ExtThread0 {
		return true
	}
	// Own×own: aligned partitions under a static schedule — the only
	// kind the engines have — stay disjoint.
	if a.Extent == ExtOwn && b.Extent == ExtOwn {
		return a.Part != b.Part
	}
	// Any wider extent (neighbor/gather/all) reaches other threads' data.
	return true
}

// conflicts computes the cross-thread conflicts spanning site siteIdx
// under sc.
func findConflicts(items []item, siteIdx int, sc scenario) []conflict {
	before := window(items, siteIdx, -1, sc)
	after := window(items, siteIdx, +1, sc)
	var out []conflict
	seen := map[string]bool{}
	for _, a := range before {
		for _, b := range after {
			if a.Field != b.Field {
				continue
			}
			if !a.Write && !b.Write {
				continue
			}
			// Parity-aware: distribution accesses at different slots are
			// different buffers.
			if a.Slot != SlotNone && b.Slot != SlotNone && a.Slot != b.Slot {
				continue
			}
			if !crossThread(a, b, sc) {
				continue
			}
			kind := "write-read"
			switch {
			case a.Write && b.Write:
				kind = "write-write"
			case !a.Write:
				kind = "read-write"
			}
			fa, fb := a.FieldSlot(), b.FieldSlot()
			field := fa
			if len(fb) > len(fa) {
				field = fb
			}
			c := conflict{
				field:   field,
				kind:    kind,
				stencil: maxExtent(a.Extent, b.Extent).String(),
				before:  a.segName,
				after:   b.segName,
			}
			if !seen[c.key()] {
				seen[c.key()] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

func toReportConflicts(cs []conflict) []fusereport.Conflict {
	var out []fusereport.Conflict
	for _, c := range cs {
		out = append(out, fusereport.Conflict{
			Field: c.field, Kind: c.kind, Stencil: c.stencil,
			Before: c.before, After: c.after,
		})
	}
	return out
}

// analyzeEngine classifies every reported site of one engine and emits
// fold-legality diagnostics.
func analyzeEngine(seq engineSeq) (fusereport.Engine, []Diagnostic) {
	eng := fusereport.Engine{Engine: seq.name}
	var diags []Diagnostic
	for i, it := range seq.items {
		if it.seg || !it.reported {
			continue
		}
		b := fusereport.Barrier{
			Site:          it.name,
			AfterPhase:    precedingPhase(seq.items, i),
			FoldCondition: it.condStr,
		}
		foldable, foldLegal, activeConflict := false, true, false
		var headline []conflict
		for _, sc := range seq.scenarios {
			active := it.cond == nil || it.cond(sc)
			cs := findConflicts(seq.items, i, sc)
			verdict := fusereport.VerdictFusible
			if len(cs) > 0 {
				verdict = fusereport.VerdictRequired
			}
			b.Scenarios = append(b.Scenarios, fusereport.ScenarioVerdict{
				Scenario: sc.name, Active: active, Verdict: verdict,
				Conflicts: toReportConflicts(cs),
			})
			if !active {
				foldable = true
				if len(cs) > 0 {
					foldLegal = false
					c := cs[0]
					diags = append(diags, Diagnostic{
						Check: "phasecheck",
						Pos:   it.pos,
						Message: fmt.Sprintf(
							"barrier %s is folded under scenario %s but a cross-thread conflict spans it: %s %s (%s) between %s and %s",
							it.name, sc.name, c.field, c.kind, c.stencil, c.before, c.after),
					})
				}
			} else if len(cs) > 0 {
				activeConflict = true
				if headline == nil {
					headline = cs
				}
			}
		}
		switch {
		case foldable && foldLegal:
			// The source's conditional fold is proven conflict-free in
			// every scenario that folds it.
			b.Classification = fusereport.VerdictFusible
		case activeConflict:
			b.Classification = fusereport.VerdictRequired
			b.Conflicts = toReportConflicts(headline)
		default:
			b.Classification = fusereport.VerdictFusible
		}
		eng.Barriers = append(eng.Barriers, b)
	}
	return eng, diags
}

func precedingPhase(items []item, siteIdx int) string {
	n := len(items)
	for off := 1; off <= n; off++ {
		it := items[((siteIdx-off)%n+n)%n]
		if it.seg && it.name != "" {
			return it.name
		}
	}
	return ""
}

// --- engine builders -------------------------------------------------

func findMethod(pkg *Package, recv, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if namedTypeName(pkg.Info.TypeOf(fd.Recv.List[0].Type)) == recv {
				return fd
			}
		}
	}
	return nil
}

func boolSuffix(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

func cubeScenarios() []scenario {
	var out []scenario
	for _, fibers := range []bool{false, true} {
		out = append(out, scenario{
			name:   boolSuffix(fibers, "fibers", "fluid") + "+swap+minimal",
			guards: map[string]bool{"fibers": fibers, "multi": true, "float32": false},
		})
	}
	return out
}

func ompScenarios() []scenario {
	return []scenario{{
		name:   "static+swap",
		guards: map[string]bool{"fibers": true, "multi": true, "float32": false},
	}}
}

func fusedScenarios() []scenario {
	var out []scenario
	for _, fibers := range []bool{false, true} {
		out = append(out, scenario{
			name:   boolSuffix(fibers, "fsi", "fluid") + "+swap+static",
			guards: map[string]bool{"fibers": fibers, "multi": true, "float32": false},
		})
	}
	return out
}

// buildCubeSeq linearizes cubesolver.(*Solver).timeStep.
func buildCubeSeq(w *effectWalker, pkg *Package) (engineSeq, error) {
	fd := findMethod(pkg, "Solver", "timeStep")
	if fd == nil || fd.Body == nil {
		return engineSeq{}, fmt.Errorf("cubesolver: timeStep not found")
	}
	l := &linearizer{w: w, pkg: pkg}
	b := &segBuilder{}
	ctx := newStepCtx(ExtOwn, "cube")
	l.linearizeBody(b, fd.Body.List, &astInfo{info: pkg.Info}, ctx)
	b.flush()
	return engineSeq{name: "cube", items: b.items, scenarios: cubeScenarios(), pkg: pkg}, nil
}

// buildOmpSeq flattens omp.(*Solver).Step: each run(core.K..., method)
// kernel becomes a segment (serial prelude + region closure) followed by
// the region's implicit join, reported as the kernel's barrier site.
func buildOmpSeq(w *effectWalker, pkg *Package) (engineSeq, error) {
	fd := findMethod(pkg, "Solver", "Step")
	if fd == nil || fd.Body == nil {
		return engineSeq{}, fmt.Errorf("omp: Step not found")
	}
	var items []item
	for _, st := range fd.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || calleeName(call) != "run" || len(call.Args) != 2 {
			continue
		}
		k, ok := ompKernels[constName(call.Args[0])]
		if !ok {
			continue
		}
		var effs []Effect
		ctx := newStepCtx(ExtSerial, k.part)
		if sel, ok := call.Args[1].(*ast.SelectorExpr); ok {
			if m := w.idx[pkg.Info.Uses[sel.Sel]]; m != nil {
				effs = w.funcEffects(m, ctx)
			}
		}
		items = append(items,
			item{seg: true, name: k.phase, effects: effs},
			item{name: k.site, reported: true, pos: call.Pos()},
		)
	}
	if len(items) != 18 {
		return engineSeq{}, fmt.Errorf("omp: expected 9 kernel regions in Step, found %d", len(items)/2)
	}
	return engineSeq{name: "omp", items: items, scenarios: ompScenarios(), pkg: pkg}, nil
}

// buildFusedSeq flattens fused.(*Solver).Step: the fiber-force region,
// the sweep (spliced at its wavefront barriers — the end-of-sweep
// barrier is the region's join, so it is modeled always-active), the
// serial swap, and the move-fibers region.
func buildFusedSeq(w *effectWalker, pkg *Package) (engineSeq, error) {
	fd := findMethod(pkg, "Solver", "Step")
	if fd == nil || fd.Body == nil {
		return engineSeq{}, fmt.Errorf("fused: Step not found")
	}
	l := &linearizer{w: w, pkg: pkg}
	b := &segBuilder{}
	info := &astInfo{info: pkg.Info}
	for _, st := range fd.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		switch calleeName(call) {
		case "run":
			if len(call.Args) != 2 {
				continue
			}
			name, part := "fiber_force_spread", "fiber"
			if constName(call.Args[0]) == "PhaseMoveFibers" {
				name, part = "move_fibers", "fiber"
			}
			b.setPhase(name, part)
			ctx := newStepCtx(ExtSerial, part)
			switch a := call.Args[1].(type) {
			case *ast.FuncLit:
				b.add(l.effectsOf(func(out *[]Effect) { w.block(a.Body, pkg.Info, ctx, out) }))
			case *ast.SelectorExpr:
				if m := w.idx[pkg.Info.Uses[a.Sel]]; m != nil {
					b.add(w.funcEffects(m, ctx))
				}
			}
			// The region's implicit join.
			b.site("join_"+name, false, nil, "", call.Pos())
		case "sweep":
			if fn := l.w.resolveCallee(call, pkg.Info); fn != nil {
				b.setPhase("collide_stream", "xslab")
				ctx := newStepCtx(ExtSerial, "xslab")
				l.linearizeBody(b, fn.Body.List, info, ctx)
				// linearizeBody names post-barrier segments after the
				// running phase; rename the tail segment (region B +
				// serial swap) for the report.
				b.setPhase("swap_distribution", "xslab")
			}
		}
	}
	b.flush()
	// Region B of the sweep and the serial swap landed in one builder
	// segment named collide_stream after the mid barrier; retitle it so
	// the two reported sites sit after distinct phases.
	fixFusedNames(b.items)
	return engineSeq{name: "fused", items: b.items, scenarios: fusedScenarios(), pkg: pkg}, nil
}

// fixFusedNames renames the sweep's post-wavefront segment: between the
// after_stream site and the end_of_step site the work is the chunk-edge
// finalize (update_velocity in the engine's phase vocabulary).
func fixFusedNames(items []item) {
	seenMid := false
	for i := range items {
		if !items[i].seg {
			if items[i].name == "after_stream" {
				seenMid = true
			}
			if items[i].name == "end_of_step" {
				seenMid = false
			}
			continue
		}
		if seenMid && items[i].name == "collide_stream" {
			items[i].name = "update_velocity"
		}
	}
}

// BuildFuseReport runs the phase-effect analysis over the module's
// three engines and returns the lbmib-fuse/v1 report plus fold-legality
// diagnostics. Engines whose packages are absent from pkgs are skipped;
// extraction failures yield an unclassified placeholder site so the
// coverage gate trips rather than silently passing.
func BuildFuseReport(pkgs []*Package) (*fusereport.Report, []Diagnostic) {
	w := newEffectWalker(pkgs)
	var diags []Diagnostic
	rep := &fusereport.Report{Schema: fusereport.Schema}
	builders := []struct {
		suffix string
		build  func(*effectWalker, *Package) (engineSeq, error)
	}{
		{"internal/cubesolver", buildCubeSeq},
		{"internal/omp", buildOmpSeq},
		{"internal/fused", buildFusedSeq},
	}
	for _, bld := range builders {
		var pkg *Package
		for _, p := range pkgs {
			if hasSuffixPath(p.Path, bld.suffix) {
				pkg = p
				break
			}
		}
		if pkg == nil {
			continue
		}
		seq, err := bld.build(w, pkg)
		if err != nil {
			diags = append(diags, Diagnostic{Check: "phasecheck", Pos: token.NoPos,
				Message: "fusibility extraction failed: " + err.Error()})
			rep.Engines = append(rep.Engines, fusereport.Engine{
				Engine:   strings.TrimPrefix(bld.suffix, "internal/"),
				Barriers: []fusereport.Barrier{{Site: "unextracted"}},
			})
			continue
		}
		eng, ds := analyzeEngine(seq)
		rep.Engines = append(rep.Engines, eng)
		diags = append(diags, ds...)
	}
	return rep, diags
}

// runPhaseCheck is the phasecheck module pass: fold-legality diagnostics
// for the real engines, plus generic analysis of any fixture package
// declaring a timeStep method with waitBarrier calls.
func runPhaseCheck(mp *ModulePass) []Diagnostic {
	var engines []*Package
	var diags []Diagnostic
	for _, pkg := range mp.Pkgs {
		switch {
		case hasSuffixPath(pkg.Path, "internal/cubesolver"),
			hasSuffixPath(pkg.Path, "internal/omp"),
			hasSuffixPath(pkg.Path, "internal/fused"):
			engines = append(engines, pkg)
		case strings.Contains(pkg.Path, "/testdata/") || mp.Single:
			diags = append(diags, genericPhaseCheck(mp, pkg)...)
		}
	}
	if len(engines) > 0 {
		_, ds := BuildFuseReport(mp.Pkgs)
		diags = append(diags, ds...)
	}
	return diags
}

// genericPhaseCheck analyzes a standalone package's timeStep method (if
// any): a conditionally-skipped barrier spanned by a cross-thread
// conflict in a scenario that skips it is flagged — the same fold
// legality proof the engines get, applied to arbitrary code.
func genericPhaseCheck(mp *ModulePass, pkg *Package) []Diagnostic {
	if pkg.Info == nil {
		return nil
	}
	var fd *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if x, ok := d.(*ast.FuncDecl); ok && x.Name.Name == "timeStep" && x.Recv != nil && containsBarrier(x) {
				fd = x
				break
			}
		}
	}
	if fd == nil || fd.Body == nil {
		return nil
	}
	w := newEffectWalker([]*Package{pkg})
	l := &linearizer{w: w, pkg: pkg}
	b := &segBuilder{}
	ctx := newStepCtx(ExtOwn, "part")
	l.linearizeBody(b, fd.Body.List, &astInfo{info: pkg.Info}, ctx)
	b.flush()
	// Scenario space: every guard named by a site condition, toggled.
	guardSet := map[string]bool{}
	for _, it := range b.items {
		if !it.seg && it.condStr != "" {
			for _, g := range strings.FieldsFunc(it.condStr, func(r rune) bool {
				return r == ' ' || r == '|' || r == '&' || r == '!' || r == '(' || r == ')'
			}) {
				if g != "" {
					guardSet[g] = true
				}
			}
		}
	}
	var guards []string
	for g := range guardSet {
		guards = append(guards, g)
	}
	sort.Strings(guards)
	if len(guards) > 4 {
		guards = guards[:4]
	}
	var scenarios []scenario
	for mask := 0; mask < 1<<len(guards); mask++ {
		sc := scenario{guards: map[string]bool{"multi": true}}
		var parts []string
		for gi, g := range guards {
			on := mask&(1<<gi) != 0
			sc.guards[g] = on
			parts = append(parts, boolSuffix(on, g, "!"+g))
		}
		sc.name = strings.Join(parts, "+")
		if sc.name == "" {
			sc.name = "default"
		}
		scenarios = append(scenarios, sc)
	}
	seq := engineSeq{name: pkg.Name, items: b.items, scenarios: scenarios, pkg: pkg}
	_, diags := analyzeEngine(seq)
	return diags
}

// PhaseCheck is the fusibility fold-legality analyzer.
var PhaseCheck = &Analyzer{
	Name: "phasecheck",
	Doc: "prove that conditionally-folded barriers stay conflict-free: a cross-thread " +
		"write→read or write→write spanning a barrier in a scenario where the source " +
		"folds it away breaks the bitwise contract",
	RunModule: runPhaseCheck,
}
