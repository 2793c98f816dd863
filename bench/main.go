// Command bench is the repository's benchmark: five named workloads, five
// end-to-end metrics from an untraced run, and a traced run that locates
// the time layer by layer. Every layer is measured from outside, by timing
// calls into its public functions; README.md in this directory documents
// the method, the metrics and how the bounds were calibrated.
//
//	go run ./bench -workload <name>|all [-seed N] [-seconds S] [-trace 0|1] [-json]
//	go run ./bench -selfcheck N
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when a
// verification check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Int("seconds", runSeconds, "length of the timed window; scales the number of blocks")
		trace     = flag.Int("trace", 0, "1: traced run printing the per-layer metrics and writing bench/out/trace_<workload>.json; 0: untraced run printing the end-to-end metrics")
		jsonOnly  = flag.Bool("json", false, "print only the host and result JSON lines")
		smoke     = flag.Bool("smoke", false, "half-size problems, 2 blocks x 2 steps, minimal sampling: exercises every code path, measures nothing")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N runs of every workload and compare their medians against the bounds")
	)
	flag.Parse()
	if err := run(*name, options{seed: *seed, seconds: *seconds, smoke: *smoke}, *trace != 0, *jsonOnly, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func run(name string, opt options, traced, jsonOnly bool, selfcheckN int) error {
	if opt.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	h := fingerprint()
	if err := h.guard(); err != nil {
		return err
	}
	switch {
	case selfcheckN > 0:
		return selfcheck(selfcheckN, opt)
	case name == "all":
		return runAll(opt, traced, jsonOnly)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	var report io.Writer = os.Stdout
	if jsonOnly {
		report = io.Discard
	}
	res, err := runWorkload(w, opt, h, traced, report, filepath.Join("bench", "out"))
	if err != nil {
		return err
	}
	hostLine, _ := json.Marshal(map[string]any{"workload": w.name, "seed": opt.seed, "host": h})
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", hostLine, line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runWorkload performs one invocation of a workload — the untraced run,
// or the traced one — and reports every metric by name with its unit.
func runWorkload(w workload, opt options, h host, traced bool, report io.Writer, outDir string) (result, error) {
	start := time.Now()
	b := newBench(w, opt, h, report)
	fmt.Fprintf(report, "workload %s seed %d: %d blocks x %d steps, %d thread(s)\n",
		w.name, opt.seed, b.blocks, b.blockSteps, max(1, b.plain().Threads))
	defs := endToEnd
	var values map[string]float64
	var err error
	if traced {
		defs = perLayer
		values, err = b.tracedRun(outDir)
	} else {
		values, err = b.endToEndRun()
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || !finite(v) {
			return result{}, fmt.Errorf("%s: metric %s missing or not finite", w.name, d.name)
		}
		metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(report, "  %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	if len(values) != len(defs) {
		return result{}, fmt.Errorf("%s: %d metrics measured, %d advertised", w.name, len(values), len(defs))
	}
	for _, n := range b.notes {
		fmt.Fprintf(report, "  note: %s\n", n)
	}
	fmt.Fprintf(report, "  operations: %d attempted, %d failed; invocation took %.1f s\n",
		b.attempted, b.failed, time.Since(start).Seconds())
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}
