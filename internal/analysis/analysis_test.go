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
		{"phasebad", PhaseCheck, 0},
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
	p := sharedProgram(t)
	pkgs, err := p.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadAll found only %d packages; loader is missing the module", len(pkgs))
	}
	if errs := p.TypeErrors(); len(errs) > 0 {
		t.Fatalf("module must type-check under the stdlib-only loader; got %v", errs)
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

// TestImportDirection pins which way the event contract points: the
// sinks depend (transitively) on the vocabulary in internal/core and on
// no engine, and fused — which may build on omp, whose solver it embeds
// — and taskflow take no names from cubesolver.
func TestImportDirection(t *testing.T) {
	p := sharedProgram(t)
	engines := []string{"cubesolver", "omp", "fused", "taskflow"}
	for from, banned := range map[string][]string{
		"telemetry": engines, "flightrec": engines, "perfmon": engines, "critpath": engines,
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
