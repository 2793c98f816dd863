// Package analysis is lbmib-lint's engine: a stdlib-only static
// analyzer (go/ast + go/parser + go/types, no external loader) that
// proves the project-specific concurrency and numerics invariants the
// race detector can only sample. Seven analyzers encode the contracts
// the engines rest on:
//
//   - lockcheck — every Lock/TryLock-success path releases its mutex on
//     all control-flow paths, and nested acquisitions form no ordering
//     cycle (taskflow's hand-over-hand worker loop, par.Barrier's
//     crossings, and the sinks' mutexes);
//   - barriercheck — barrier waits in the worker loops must not be
//     control-dependent on thread-varying conditions, and barrier site
//     counts must match across divergent branches (Algorithm 4's
//     "every thread reaches every barrier" choreography);
//   - paritycheck — a layout's double-buffered distribution arrays may
//     be picked by a literal parity only inside the grid/cube accessor
//     layer; everywhere else, Dist(Cur()) is the contract (the swap-based
//     kernel-9 retirement);
//   - floatcheck — ==/!= on floating-point operands is forbidden in
//     the physics packages (bitwise-equality test files are exempt by
//     construction: test files are not loaded);
//   - observercheck — the nil-defaulting event contract, core.Probe,
//     must be nil-guarded before invocation on hot paths;
//   - atomiccheck — a word accessed through sync/atomic anywhere must
//     be accessed through sync/atomic everywhere (no mixed plain
//     loads/stores);
//   - hotalloc — no heap allocation, fmt formatting, or closure
//     construction inside loops reachable from a Step/timeStep/sweep
//     hot root.
//
// Findings a human has reviewed are silenced with //lint:allow
// comments (see suppress.go) that carry the reason for the exemption.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Check   string
	Pos     token.Pos
	Message string
	// Fix, when non-nil, is a machine-applicable remediation offered
	// under lbmib-lint -fix.
	Fix *TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// Pass is the per-package unit of work handed to an analyzer.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
}

// TypeOf returns the type of e, or nil when type information is
// unavailable (e.g. the fuzzer's single-file mode on broken input).
// Analyzers must tolerate nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg == nil || p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(e)
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// Scope reports whether the analyzer applies to a package path;
	// nil means every package. Packages under a testdata directory —
	// the golden-bad fixture corpus — are always in scope, so pointing
	// the CLI at a fixture exercises every analyzer regardless of the
	// fixture's import path.
	Scope func(pkgPath string) bool
	Run   func(pass *Pass) []Diagnostic
	// RunModule, when set instead of Run, receives every loaded package
	// at once — for whole-program analyses (hotalloc's cross-package call
	// graph) that cannot work one package at a time.
	RunModule func(mp *ModulePass) []Diagnostic
}

// ModulePass is the whole-module unit of work for RunModule analyzers.
type ModulePass struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// Analyzers returns the full analyzer set in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockCheck,
		BarrierCheck,
		ParityCheck,
		FloatCheck,
		ObserverCheck,
		AtomicCheck,
		HotAlloc,
	}
}

// AnalyzersByName resolves a comma-separated -checks list; an empty
// list selects everything.
func AnalyzersByName(list string) ([]*Analyzer, error) {
	all := Analyzers()
	if strings.TrimSpace(list) == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, &UnknownCheckError{Name: name}
		}
		out = append(out, a)
	}
	return out, nil
}

// UnknownCheckError reports a -checks entry that names no analyzer.
type UnknownCheckError struct{ Name string }

func (e *UnknownCheckError) Error() string {
	return "unknown check " + e.Name
}

// Result is the outcome of running analyzers over a set of packages.
type Result struct {
	Diagnostics []Diagnostic // unsuppressed, sorted by position
	Suppressed  int          // findings silenced by //lint:allow
}

// Run executes the analyzers over the packages, honoring each
// analyzer's Scope and the //lint:allow suppressions in the source.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) Result {
	var res Result
	// Per-package analyzers are independent across packages (each Pass is
	// fresh, packages are read-only, and FileSet lookups are safe for
	// concurrent readers), so packages fan out across the CPUs. Results
	// land in a per-package slot and merge in package order, keeping the
	// output deterministic regardless of scheduling.
	type pkgResult struct {
		diags      []Diagnostic
		suppressed int
	}
	supByPkg := make(map[*Package]*suppressions, len(pkgs))
	perPkg := make([]pkgResult, len(pkgs))
	for _, pkg := range pkgs {
		supByPkg[pkg] = newSuppressions(fset, pkg)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer func() { <-sem; wg.Done() }()
			sup := supByPkg[pkg]
			pass := &Pass{Fset: fset, Pkg: pkg}
			for _, a := range analyzers {
				if a.Run == nil {
					continue
				}
				if a.Scope != nil && !a.Scope(pkg.Path) && !strings.Contains(pkg.Path, "/testdata/") {
					continue
				}
				for _, d := range a.Run(pass) {
					if sup.allows(a.Name, fset.Position(d.Pos)) {
						perPkg[i].suppressed++
						continue
					}
					perPkg[i].diags = append(perPkg[i].diags, d)
				}
			}
		}(i, pkg)
	}
	wg.Wait()
	for _, pr := range perPkg {
		res.Diagnostics = append(res.Diagnostics, pr.diags...)
		res.Suppressed += pr.suppressed
	}
	// Whole-module analyzers run once; their diagnostics are suppressed
	// by the package owning the position they point at.
	filePkg := make(map[string]*Package)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			filePkg[fset.Position(f.Pos()).Filename] = pkg
		}
	}
	mp := &ModulePass{Fset: fset, Pkgs: pkgs}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		for _, d := range a.RunModule(mp) {
			if pkg := filePkg[fset.Position(d.Pos).Filename]; pkg != nil {
				if supByPkg[pkg].allows(a.Name, fset.Position(d.Pos)) {
					res.Suppressed++
					continue
				}
			}
			res.Diagnostics = append(res.Diagnostics, d)
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		pi, pj := fset.Position(res.Diagnostics[i].Pos), fset.Position(res.Diagnostics[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return res.Diagnostics[i].Check < res.Diagnostics[j].Check
	})
	return res
}

// RunAll is Run over every analyzer with no scope bypass — the self-host
// entry point used by the CLI and TestLintSelfHost.
func RunAll(fset *token.FileSet, pkgs []*Package) Result {
	return Run(fset, pkgs, Analyzers())
}

// hasSuffixPath reports whether import path p is exactly suffix or ends
// with "/"+suffix — path membership that is module-prefix agnostic so
// fixture modules behave like the real one.
func hasSuffixPath(p, suffix string) bool {
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
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
