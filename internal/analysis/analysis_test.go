package analysis

import (
	"bufio"
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

// wantLines scans fixture sources for //want:lockcheck markers, returning
// the set of 1-based lines on which a diagnostic is expected.
func wantLines(t *testing.T, pkg *Package) map[int]bool {
	t.Helper()
	want := make(map[int]bool)
	for _, name := range pkg.Filenames {
		f, err := os.Open(name)
		if err != nil {
			t.Fatalf("open fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), "//want:lockcheck") {
				want[line] = true
			}
		}
		f.Close()
	}
	return want
}

// TestAnalyzersGoldenCorpus drives lockcheck over its known-bad fixture
// package and asserts the diagnostics land exactly on the //want-marked
// lines — no misses, no extras.
func TestAnalyzersGoldenCorpus(t *testing.T) {
	t.Run("lockbad", func(t *testing.T) {
		p := sharedProgram(t)
		pkg, err := p.LoadDir(filepath.Join("testdata", "src", "lockbad"))
		if err != nil {
			t.Fatalf("LoadDir: %v", err)
		}
		if errs := p.TypeErrors(); len(errs) > 0 {
			t.Fatalf("the fixture must type-check cleanly; got %v", errs)
		}
		want := wantLines(t, pkg)
		if len(want) == 0 {
			t.Fatal("fixture lockbad has no //want:lockcheck markers")
		}
		diags := LockCheck([]*Package{pkg})
		got := make(map[int]bool)
		for _, d := range diags {
			got[p.Fset.Position(d.Pos).Line] = true
		}
		for line := range want {
			if !got[line] {
				t.Errorf("expected a diagnostic on line %d, got none", line)
			}
		}
		for _, d := range diags {
			if pos := p.Fset.Position(d.Pos); !want[pos.Line] {
				t.Errorf("unexpected diagnostic %s:%d: %s", pos.Filename, pos.Line, d.Message)
			}
		}
	})
}

// TestLintSelfHost runs lockcheck over the real module and asserts zero
// diagnostics: the repository is its own largest regression corpus.
func TestLintSelfHost(t *testing.T) {
	p, pkgs := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("LoadAll found only %d packages; loader is missing the module", len(pkgs))
	}
	for _, d := range LockCheck(pkgs) {
		pos := p.Fset.Position(d.Pos)
		t.Errorf("finding: %s:%d:%d: lockcheck: %s", pos.Filename, pos.Line, pos.Column, d.Message)
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

// TestImportDirection pins which way the event contract points: the
// sinks depend (transitively) on the vocabulary in internal/core and on
// no schedule.
func TestImportDirection(t *testing.T) {
	p := sharedProgram(t)
	engines := []string{"engine"}
	for from, banned := range map[string][]string{
		"telemetry": engines, "flightrec": engines, "perfmon": engines,
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
