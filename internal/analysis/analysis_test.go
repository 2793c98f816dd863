package analysis

import (
	"bufio"
	"errors"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The tests share one Program so the standard library is type-checked
// once per test binary, not once per fixture.
var (
	progOnce sync.Once
	prog     *Program
	progErr  error
)

func sharedProgram(t *testing.T) *Program {
	t.Helper()
	progOnce.Do(func() {
		prog, progErr = NewProgram(".")
	})
	if progErr != nil {
		t.Fatalf("NewProgram: %v", progErr)
	}
	return prog
}

// wantLines scans fixture sources for //want:<check> markers, returning
// the set of 1-based lines on which a diagnostic of that check is
// expected.
func wantLines(t *testing.T, pkg *Package, check string) map[int]bool {
	t.Helper()
	want := make(map[int]bool)
	marker := "//want:" + check
	for _, name := range pkg.Filenames {
		f, err := os.Open(name)
		if err != nil {
			t.Fatalf("open fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), marker) {
				want[line] = true
			}
		}
		f.Close()
	}
	return want
}

// TestAnalyzersGoldenCorpus drives each analyzer over its known-bad
// fixture package and asserts the diagnostics land exactly on the
// //want-marked lines — no misses, no extras.
func TestAnalyzersGoldenCorpus(t *testing.T) {
	cases := []struct {
		dir            string
		analyzer       *Analyzer
		wantSuppressed int
	}{
		{"lockbad", LockCheck, 0},
		{"barrierbad", BarrierCheck, 0},
		{"paritybad", ParityCheck, 0},
		{"floatbad", FloatCheck, 1},
		{"observerbad", ObserverCheck, 0},
		{"atomicbad", AtomicCheck, 1},
		{"allocbad", HotAlloc, 1},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			p := sharedProgram(t)
			pkg, err := p.LoadDir(filepath.Join("testdata", "src", tc.dir))
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			// Fixture packages sit under testdata, outside every
			// analyzer's Scope; strip it so the check itself is under
			// test, with suppressions still honored via Run.
			a := *tc.analyzer
			a.Scope = nil
			res := Run(p.Fset, []*Package{pkg}, []*Analyzer{&a})

			want := wantLines(t, pkg, tc.analyzer.Name)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no //want:%s markers", tc.dir, tc.analyzer.Name)
			}
			got := make(map[int]bool)
			for _, d := range res.Diagnostics {
				got[p.Fset.Position(d.Pos).Line] = true
			}
			for line := range want {
				if !got[line] {
					t.Errorf("%s: expected %s diagnostic on line %d, got none", tc.dir, tc.analyzer.Name, line)
				}
			}
			for _, d := range res.Diagnostics {
				pos := p.Fset.Position(d.Pos)
				if !want[pos.Line] {
					t.Errorf("%s: unexpected diagnostic %s:%d: %s", tc.dir, pos.Filename, pos.Line, d.Message)
				}
			}
			if res.Suppressed != tc.wantSuppressed {
				t.Errorf("%s: suppressed = %d, want %d", tc.dir, res.Suppressed, tc.wantSuppressed)
			}
		})
	}
	if errs := sharedProgram(t).TypeErrors(); len(errs) > 0 {
		t.Fatalf("fixtures must type-check cleanly; got %v", errs)
	}
}

// TestLintSelfHost runs every analyzer over the real module and asserts
// zero unsuppressed diagnostics: the repository is its own largest
// regression corpus, and every reviewed exemption must stay visible in
// the suppressed counter.
func TestLintSelfHost(t *testing.T) {
	p, pkgs := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("LoadAll found only %d packages; loader is missing the module", len(pkgs))
	}
	res := RunAll(p.Fset, pkgs)
	for _, d := range res.Diagnostics {
		pos := p.Fset.Position(d.Pos)
		t.Errorf("unsuppressed finding: %s:%d:%d: %s: %s", pos.Filename, pos.Line, pos.Column, d.Check, d.Message)
	}
	if res.Suppressed == 0 {
		t.Error("self-host run saw no suppressions: //lint:allow indexing is broken (the repo documents several)")
	}
}

// loadModule loads every package of the module through the shared
// Program, failing the test on a load or type error.
func loadModule(t *testing.T) (*Program, []*Package) {
	t.Helper()
	p := sharedProgram(t)
	pkgs, err := p.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if errs := p.TypeErrors(); len(errs) > 0 {
		t.Fatalf("module must type-check under the stdlib-only loader; got %v", errs)
	}
	return p, pkgs
}

// TestBarrierCheckCoversEveryBarrierOwner: a package that names
// par.Barrier or par.TimedBarrier in its non-test files owns barrier
// sites, so barriercheck must look at it — a scope list that silently
// omits an engine lets a thread-guarded barrier through.
func TestBarrierCheckCoversEveryBarrierOwner(t *testing.T) {
	p, pkgs := loadModule(t)
	parPath := p.ModulePath + "/internal/par"
	owners := 0
	for _, pkg := range pkgs {
		uses := false
		for _, obj := range pkg.Info.Uses {
			if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == parPath &&
				(tn.Name() == "Barrier" || tn.Name() == "TimedBarrier") {
				uses = true
				break
			}
		}
		if !uses {
			continue
		}
		owners++
		if !BarrierCheck.Scope(pkg.Path) {
			t.Errorf("%s uses par's barriers but is not in barriercheck's scope", pkg.Path)
		}
	}
	if owners < 3 {
		t.Fatalf("found %d barrier-owning packages; want at least par, cubesolver and fused", owners)
	}
}

// TestHotAllocReach pins what hotalloc's call graph reaches from the
// per-step roots over the real module: the shared loop bodies, the
// engines' own loops, and — through interface dispatch — the coupling
// bodies behind ibm's interfaces and the probe sinks behind core.Probe.
// A resolver case lost in a refactor fails here instead of silently
// shrinking the check.
func TestHotAllocReach(t *testing.T) {
	p, pkgs := loadModule(t)
	g := newCallGraph(pkgs)
	prefix := p.ModulePath + "/internal/"
	got := map[string]bool{}
	for fd := range hotReachable(g) {
		if fn, ok := g.infos[fd].Defs[fd.Name].(*types.Func); ok {
			got[strings.ReplaceAll(fn.FullName(), prefix, "")] = true
		}
	}
	for _, name := range []string{
		// shared bodies
		"core.CollideRange", "(*core.Streamer).Block", "core.UpdateRange",
		"core.SpreadSheetNodes", "core.MoveSheetNodes", "(*core.SpreadAccum).SpreadStencil",
		"lattice.Collide", "(*grid.Coupling).SpreadStencil", "(*grid.Coupling).InterpolateStencil",
		// engine loops; the fused sweep and finaliser are generic
		"fused.sweepOn", "fused.finalizePlane", "(*taskflow.Solver).execute", "(*omp.Solver).parallelFor",
		// probe sinks, reached by interface dispatch
		"(*telemetry.Tracer).Emit", "(*flightrec.Recorder).Emit", "(*perfmon.Profile).Emit",
	} {
		if !got[name] {
			t.Errorf("%s is not reachable from the per-step roots", name)
		}
	}
}

// TestImportDirection pins which way the event contract points: the
// sinks depend (transitively) on the vocabulary in internal/core and on
// no engine, and fused — which may build on omp, whose solver it embeds
// — and taskflow take no names from cubesolver.
func TestImportDirection(t *testing.T) {
	p := sharedProgram(t)
	engines := []string{"cubesolver", "omp", "fused", "taskflow"}
	for from, banned := range map[string][]string{
		"telemetry": engines, "flightrec": engines, "perfmon": engines,
		"fused": {"cubesolver"}, "taskflow": {"cubesolver"},
	} {
		pkg, err := p.LoadDir(filepath.Join("..", from))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", from, err)
		}
		deps := map[string]bool{}
		var visit func(tp *types.Package)
		visit = func(tp *types.Package) {
			if !deps[tp.Path()] {
				deps[tp.Path()] = true
				for _, imp := range tp.Imports() {
					visit(imp)
				}
			}
		}
		visit(pkg.Types)
		for _, b := range banned {
			if deps["lbmib/internal/"+b] {
				t.Errorf("internal/%s depends on internal/%s", from, b)
			}
		}
	}
}

func TestLoadDirPathMapping(t *testing.T) {
	p := sharedProgram(t)
	pkg, err := p.LoadDir("../grid")
	if err != nil {
		t.Fatalf("LoadDir(../grid): %v", err)
	}
	if pkg.Path != "lbmib/internal/grid" {
		t.Errorf("Path = %q, want lbmib/internal/grid", pkg.Path)
	}
	if pkg.Name != "grid" {
		t.Errorf("Name = %q, want grid", pkg.Name)
	}
	if pkg.Types == nil || pkg.Info == nil {
		t.Error("LoadDir returned package without type information")
	}
}

func TestAnalyzersByName(t *testing.T) {
	all, err := AnalyzersByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("empty list should select all analyzers, got %d, err %v", len(all), err)
	}
	sub, err := AnalyzersByName("floatcheck, lockcheck")
	if err != nil || len(sub) != 2 || sub[0].Name != "floatcheck" || sub[1].Name != "lockcheck" {
		t.Fatalf("subset selection broken: %v, err %v", sub, err)
	}
	_, err = AnalyzersByName("nosuchcheck")
	var unknown *UnknownCheckError
	if !errors.As(err, &unknown) || unknown.Name != "nosuchcheck" {
		t.Fatalf("want UnknownCheckError{nosuchcheck}, got %v", err)
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"//lint:allow floatcheck -- reviewed sentinel", []string{"floatcheck"}},
		{"//lint:allow lockcheck, paritycheck -- two at once", []string{"lockcheck", "paritycheck"}},
		{"//lint:allow floatcheck", []string{"floatcheck"}},
		{"// ordinary comment", nil},
		{"//lint:allow", nil},
	}
	for _, tc := range cases {
		got := parseAllow(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseAllow(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}
