package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path      string // import path ("lbmib/internal/grid")
	Name      string // package name
	Files     []*ast.File
	Filenames []string
	Types     *types.Package
	Info      *types.Info
}

// Program holds every package the loader has type-checked, plus the
// shared FileSet and module metadata. It is the go/packages-free loader
// the analyzers run over: packages are discovered by walking the module
// root, parsed with go/parser, and type-checked bottom-up with go/types;
// standard-library imports are resolved from GOROOT source via the
// stdlib "source" importer, so the loader needs nothing beyond the Go
// toolchain's own standard library.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string // absolute module root (directory of go.mod)

	byPath map[string]*Package
	std    types.Importer
	errs   []error
}

// NewProgram prepares a loader rooted at the directory containing go.mod.
// root may be the module root itself or any directory below it.
func NewProgram(root string) (*Program, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Program{
		Fset:       fset,
		ModulePath: modPath,
		Root:       modRoot,
		byPath:     make(map[string]*Package),
		std:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// findModule walks upward from dir until it finds a go.mod, returning the
// module root and module path.
func findModule(dir string) (string, string, error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// LoadAll discovers and type-checks every package under the module root
// (the "./..." pattern), skipping testdata, vendor, and hidden
// directories. Packages are returned sorted by import path.
func (p *Program) LoadAll() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(p.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != p.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		pkg, err := p.LoadDir(path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the non-test files of the package in
// dir (which must be under the module root).
func (p *Program) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(p.Root, abs)
	if err != nil {
		return nil, err
	}
	path := p.ModulePath
	if rel != "." {
		path = p.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return p.load(path)
}

// TypeErrors returns every type-checking error accumulated so far.
func (p *Program) TypeErrors() []error { return p.errs }

// load returns the cached package for an import path, type-checking it
// (and, recursively, its module-internal imports) on first use.
func (p *Program) load(path string) (*Package, error) {
	if pkg, ok := p.byPath[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return pkg, nil
	}
	p.byPath[path] = nil // cycle marker
	pkg, err := p.check(path)
	if err != nil {
		delete(p.byPath, path)
		return nil, err
	}
	p.byPath[path] = pkg
	return pkg, nil
}

// dirFor maps a module-internal import path to its directory.
func (p *Program) dirFor(path string) string {
	if path == p.ModulePath {
		return p.Root
	}
	return filepath.Join(p.Root, filepath.FromSlash(strings.TrimPrefix(path, p.ModulePath+"/")))
}

func (p *Program) check(path string) (*Package, error) {
	dir := p.dirFor(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") ||
			strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(p.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
		names = append(names, full)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := newInfo()
	conf := types.Config{
		Importer: (*progImporter)(p),
		Error: func(err error) {
			p.errs = append(p.errs, err)
		},
	}
	tpkg, _ := conf.Check(path, p.Fset, files, info)
	return &Package{
		Path:      path,
		Name:      files[0].Name.Name,
		Files:     files,
		Filenames: names,
		Types:     tpkg,
		Info:      info,
	}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// progImporter resolves module-internal imports through the Program's
// own loader and everything else (the standard library) through the
// GOROOT source importer.
type progImporter Program

func (pi *progImporter) Import(path string) (*types.Package, error) {
	p := (*Program)(pi)
	if path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/") {
		pkg, err := p.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return p.std.Import(path)
}
