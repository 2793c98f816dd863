// Command lbmib-crosscheck is the CLI face of the cross-engine
// differential checker (internal/crosscheck). It generates seeded
// randomized configurations, executes each on every applicable engine
// (sequential, omp, the fused single-sweep engine in float64 and
// float32 storage, and — on cube-divisible grids — cube and taskflow),
// holds the results to the per-engine equivalence contract, and applies
// the physics, metamorphic and checkpoint round-trip oracles.
//
// One JSON verdict is printed per case. On the first divergence the
// tool prints the failure, a greedily minimized reproducer, and exits
// nonzero; the seed alone replays the case:
//
//	lbmib-crosscheck -seeds 25           # seeds 0..24
//	lbmib-crosscheck -start 100 -seeds 50
//	lbmib-crosscheck -seed 17            # replay one case
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lbmib/internal/crosscheck"
	"lbmib/internal/validate"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 25, "number of consecutive seeds to run")
		start     = flag.Int64("start", 0, "first seed")
		oneSeed   = flag.Int64("seed", -1, "run exactly this seed (overrides -seeds/-start)")
		tol       = flag.Float64("tol", validate.DefaultTol, "tolerance contract for nondeterministic engines")
		keepOn    = flag.Bool("keep-going", false, "run every case even after a divergence")
		flightrec = flag.String("flightrec", "", "write a flight-recorder post-mortem bundle under this directory for every diverging engine")
	)
	flag.Parse()

	r := crosscheck.NewRunner()
	r.Tol = *tol
	r.FlightRecDir = *flightrec

	lo, hi := *start, *start+int64(*seeds)
	if *oneSeed >= 0 {
		lo, hi = *oneSeed, *oneSeed+1
	}

	enc := json.NewEncoder(os.Stdout)
	failed := 0
	for seed := lo; seed < hi; seed++ {
		c := crosscheck.Gen(seed)
		res := r.Run(c)
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "lbmib-crosscheck:", err)
			os.Exit(2)
		}
		if res.OK {
			continue
		}
		failed++
		fmt.Fprintf(os.Stderr, "seed %d diverged:\n%s", seed, res.FailureSummary())
		min := r.Minimize(c)
		repro, _ := json.MarshalIndent(min, "", "  ")
		fmt.Fprintf(os.Stderr, "minimized reproducer (replay with -seed %d):\n%s\n", seed, repro)
		if !*keepOn {
			os.Exit(1)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d cases diverged\n", failed, hi-lo)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "all %d cases agree across engines\n", hi-lo)
}
