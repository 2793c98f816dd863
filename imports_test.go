package lbmib

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportDirection pins which way the event contract points: the
// sinks depend (transitively) on the vocabulary in internal/core and on
// no schedule, and the step path depends on no sink.
func TestImportDirection(t *testing.T) {
	const mod = "lbmib/"
	imports := map[string][]string{} // module package → module packages it imports
	var deps func(pkg string, seen map[string]bool)
	deps = func(pkg string, seen map[string]bool) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, ok := imports[pkg]; !ok {
			files, err := filepath.Glob(filepath.Join(strings.TrimPrefix(pkg, mod), "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no Go files for %s (%v)", pkg, err)
			}
			imports[pkg] = nil
			for _, name := range files {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
				if err != nil {
					t.Fatal(err)
				}
				for _, spec := range f.Imports {
					if p, _ := strconv.Unquote(spec.Path.Value); strings.HasPrefix(p, mod) {
						imports[pkg] = append(imports[pkg], p)
					}
				}
			}
		}
		for _, p := range imports[pkg] {
			deps(p, seen)
		}
	}
	sinks := []string{"telemetry", "flightrec", "perfmon"}
	for from, banned := range map[string][]string{
		"telemetry": {"engine"}, "flightrec": {"engine"}, "perfmon": {"engine"},
		"core": sinks, "engine": sinks,
	} {
		seen := map[string]bool{}
		deps(mod+"internal/"+from, seen)
		for _, b := range banned {
			if seen[mod+"internal/"+b] {
				t.Errorf("internal/%s depends on internal/%s", from, b)
			}
		}
	}
}
