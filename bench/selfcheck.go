package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload invocation in a process of its own — peak
// memory and allocator state are per process, so a run must not inherit
// them from the one before — and decodes the result line it prints last.
// The child is waited for before runChild returns.
func runChild(w workload, opt options, traced bool) (result, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.Itoa(opt.seconds)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, out, fmt.Errorf("%s seed %d: %w", w.name, opt.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, out, fmt.Errorf("%s seed %d: result line: %w", w.name, opt.seed, err)
	}
	return res, out, nil
}

// runAll runs every workload, one process each, and prints their reports;
// the last line maps each workload to its result.
func runAll(opt options, traced, jsonOnly bool) error {
	all := map[string]result{}
	var failed error
	for _, w := range workloads {
		res, out, err := runChild(w, opt, traced)
		if !jsonOnly {
			os.Stdout.Write(out) //nolint:errcheck // report only
		}
		if err != nil {
			failed = err
			continue
		}
		all[w.name] = res
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return failed
}

// spread is the interquartile range as a share of the median — the
// steadiness figure the benchmark driver computes over ten runs.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// worse returns by what share of a's median b's median is worse, in the
// metric's own direction (negative: b is better).
func worse(d metricDef, a, b []float64) float64 {
	rel := (median(b) - median(a)) / median(a)
	if d.better == "higher" {
		rel = -rel
	}
	return rel
}

// selfcheck runs two interleaved sets of n runs of every workload on the
// current code — set A on seeds seed..seed+n-1, set B on the n seeds
// after them — and prints, per (workload, end-to-end metric), each set's
// median and quartile spread and the sets' disagreement against the
// bound. It fails when a spread (setup_s excepted, as in the driver's
// rule) or a disagreement in either direction exceeds the bound: the
// same code must not read as a regression of itself.
func selfcheck(n int, opt options) error {
	if n < 2 {
		return fmt.Errorf("-selfcheck needs at least 2 runs per set")
	}
	type key struct{ workload, metric string }
	a, b := map[key][]float64{}, map[key][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for s, set := range []map[key][]float64{a, b} {
				o := opt
				o.seed = opt.seed + int64(s*n+i)
				res, out, err := runChild(w, o, false)
				if err != nil {
					os.Stdout.Write(out) //nolint:errcheck // report only
					return err
				}
				for name, m := range res.Metrics {
					k := key{w.name, name}
					set[k] = append(set[k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %c %s done\n", i+1, n, 'A'+s, w.name)
			}
		}
	}
	fmt.Printf("| workload | metric | A median | A iqr %% | B median | B iqr %% | B worse by %% | bound %% | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.name}
			sa, sb, dis := spread(a[k]), spread(b[k]), worse(d, a[k], b[k])
			verdict := "ok"
			if math.Abs(dis) > d.bound || (d.name != "setup_s" && max(sa, sb) > d.bound) {
				verdict = "EXCEEDS"
				bad++
			}
			fmt.Printf("| %s | %s | %.6g | %.2f | %.6g | %.2f | %+.2f | %.1f | %s |\n",
				w.name, d.name, median(a[k]), 100*sa, median(b[k]), 100*sb, 100*dis, 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d (workload, metric) pairs exceed their bound", bad)
	}
	return nil
}
