package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLintParse feeds arbitrary bytes to the single-file loader and the
// full analyzer set: whatever the input, nothing may panic. Partial or
// absent type information is the normal operating mode here, so this is
// also the regression net for every nil-Info guard in the analyzers.
func FuzzLintParse(f *testing.F) {
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "src", "*", "*.go"))
	for _, name := range fixtures {
		if data, err := os.ReadFile(name); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte("package p\n"))
	f.Add([]byte("package p\nimport \"sync\"\nvar mu sync.Mutex\nfunc f() { mu.Lock() }\n"))
	f.Add([]byte("package p\nfunc f(tid int) { if tid == 0 { barrier.Wait() } }\n"))
	f.Add([]byte("package p\nfunc (s *S) sweep(tid int) { if tid == 0 { s.waitBarrier(1, tid, 0) } }\n"))
	f.Add([]byte("package p\n//lint:allow floatcheck\nvar x = 1.0 == 2.0\n"))
	f.Add([]byte("package p\nfunc f() { return return }\n"))
	f.Add([]byte("\x00\xff garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		pkg, fset, err := ParseSingle("fuzz.go", data)
		if err != nil {
			return // unparseable input is rejected, not analyzed
		}
		pass := &Pass{Fset: fset, Pkg: pkg}
		mp := &ModulePass{Fset: fset, Pkgs: []*Package{pkg}}
		run := func(a *Analyzer) []Diagnostic {
			if a.Run != nil {
				return a.Run(pass)
			}
			return a.RunModule(mp)
		}
		for _, a := range Analyzers() {
			_ = run(a)
		}
		sup := newSuppressions(fset, pkg)
		for _, a := range Analyzers() {
			for _, d := range run(a) {
				_ = sup.allows(a.Name, fset.Position(d.Pos))
			}
		}
	})
}
