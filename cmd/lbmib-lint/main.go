// Command lbmib-lint is the project's domain-aware static analyzer: it
// proves the concurrency and numerics invariants the race detector can
// only sample (see internal/analysis). It loads the module with a
// stdlib-only go/parser + go/types pipeline — no external tooling — and
// runs seven project-specific checks:
//
//	lockcheck     mutexes released on all paths; acyclic lock order
//	barriercheck  Algorithm-4 barrier choreography is thread-uniform
//	paritycheck   layouts' arrays read through the canonicalizing accessor
//	floatcheck    no ==/!= on floats in physics packages
//	observercheck core.Probe calls nil-guarded on hot paths
//	atomiccheck   no mixed atomic/plain access to one field
//	hotalloc      no allocation in loops reachable from a step
//
// Usage:
//
//	lbmib-lint [-json] [-fix=false] [-checks lockcheck,...] [packages]
//
// The package argument accepts ./... (the default: the whole module) or
// one or more directories. Exit status: 0 clean, 1 findings, 2 usage or
// load error. -fix defaults to false so verification pipelines stay
// read-only; with -fix=true the machine-applicable remediations (nil
// guards for observercheck) are written back.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"lbmib/internal/analysis"
)

// jsonReport is the -json output, schema "lbmib-lint/v1".
type jsonReport struct {
	Schema     string        `json:"schema"`
	Findings   []jsonFinding `json:"findings"`
	Count      int           `json:"count"`
	Suppressed int           `json:"suppressed"`
	Timing     jsonTiming    `json:"timing"`
}

// jsonTiming is the load/analyze wall-clock split: load covers parsing
// and type-checking the module (done once, shared by every check),
// analyze covers running the analyzers over the loaded packages.
type jsonTiming struct {
	LoadMS    float64 `json:"load_ms"`
	AnalyzeMS float64 `json:"analyze_ms"`
}

type jsonFinding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit machine-readable findings (schema lbmib-lint/v1)")
	fix := flag.Bool("fix", false, "apply machine-applicable fixes (default false: read-only)")
	checks := flag.String("checks", "", "comma-separated subset of checks (default: all)")
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	flag.Parse()

	analyzers, err := analysis.AnalyzersByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbmib-lint:", err)
		return 2
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	loadStart := time.Now()
	prog, err := analysis.NewProgram(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbmib-lint:", err)
		return 2
	}
	prog.IncludeTests = *tests

	var pkgs []*analysis.Package
	for _, arg := range args {
		switch arg {
		case "./...", "...":
			all, err := prog.LoadAll()
			if err != nil {
				fmt.Fprintln(os.Stderr, "lbmib-lint:", err)
				return 2
			}
			pkgs = append(pkgs, all...)
		default:
			pkg, err := prog.LoadDir(arg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lbmib-lint:", err)
				return 2
			}
			if pkg != nil {
				pkgs = append(pkgs, pkg)
			}
		}
	}
	if errs := prog.TypeErrors(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "lbmib-lint: type error:", e)
		}
		return 2
	}
	loadMS := float64(time.Since(loadStart).Microseconds()) / 1000

	analyzeStart := time.Now()
	res := analysis.Run(prog.Fset, pkgs, analyzers)
	analyzeMS := float64(time.Since(analyzeStart).Microseconds()) / 1000

	if *fix {
		fixed, err := analysis.ApplyFixes(prog.Fset, res.Diagnostics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbmib-lint:", err)
			return 2
		}
		for name, data := range fixed {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "lbmib-lint:", err)
				return 2
			}
			fmt.Fprintln(os.Stderr, "lbmib-lint: fixed", name)
		}
	}

	if *jsonOut {
		rep := jsonReport{
			Schema:     "lbmib-lint/v1",
			Findings:   []jsonFinding{},
			Count:      len(res.Diagnostics),
			Suppressed: res.Suppressed,
			Timing:     jsonTiming{LoadMS: loadMS, AnalyzeMS: analyzeMS},
		}
		for _, d := range res.Diagnostics {
			p := prog.Fset.Position(d.Pos)
			rep.Findings = append(rep.Findings, jsonFinding{
				Check: d.Check, File: p.Filename, Line: p.Line, Col: p.Column, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "lbmib-lint:", err)
			return 2
		}
	} else {
		for _, d := range res.Diagnostics {
			p := prog.Fset.Position(d.Pos)
			fmt.Printf("%s:%d:%d: %s: %s\n", p.Filename, p.Line, p.Column, d.Check, d.Message)
		}
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}
