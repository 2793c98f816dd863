// Command lbmib-profile runs the sequential LBM-IB solver under the
// per-kernel profiler and prints a gprof-style report — the tooling behind
// the paper's Table I, usable on any problem size.
//
//	lbmib-profile -nx 124 -ny 64 -nz 64 -sheet 52x52 -steps 500
//
// With -critpath it instead runs a parallel engine under the
// critical-path profiler: per-step last-arriver attribution at every
// barrier site, wait-cause classification (persistent straggler, data
// imbalance, barrier-topology overhead), and a what-if table of
// predicted MLUPS gains.
//
//	lbmib-profile -critpath -solver cube -threads 4 -nx 64 -ny 64 -nz 64 -steps 100
//	lbmib-profile -critpath -solver cube -threads 4 -slow-tid 1 -slow-ms 5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/perfmon"
	"lbmib/internal/telemetry"
)

// buildSheet parses FIBERSxNODES and centers the sheet in the domain's
// yz cross-section, a quarter of the way downstream.
func buildSheet(dims string, nx, ny, nz int) *fiber.Sheet {
	if dims == "" {
		return nil
	}
	var nf, nn int
	if _, err := fmt.Sscanf(dims, "%dx%d", &nf, &nn); err != nil {
		log.Fatalf("bad -sheet %q", dims)
	}
	w := float64(nf) * 0.4
	return fiber.NewSheet(fiber.Params{
		NumFibers: nf, NodesPerFiber: nn, Width: w, Height: w,
		Origin: fiber.Vec3{float64(nx) / 4, float64(ny)/2 - w/2, float64(nz)/2 - w/2},
		Ks:     0.05, Kb: 0.001,
	})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbmib-profile: ")
	var (
		nx        = flag.Int("nx", 64, "fluid nodes along x")
		ny        = flag.Int("ny", 32, "fluid nodes along y")
		nz        = flag.Int("nz", 32, "fluid nodes along z")
		steps     = flag.Int("steps", 25, "time steps to profile")
		tau       = flag.Float64("tau", 0.7, "BGK relaxation time")
		sheetDims = flag.String("sheet", "26x26", "fiber sheet as FIBERSxNODES; empty for fluid-only")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and pprof on this address while profiling")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event timeline of the kernels to this file")

		critMode = flag.Bool("critpath", false, "critical-path mode: profile a parallel engine's barrier sites instead of the sequential kernels")
		solver   = flag.String("solver", "cube", "critpath engine: cube | fused | fused-f32 | omp")
		threads  = flag.Int("threads", 4, "critpath worker threads")
		cubeSize = flag.Int("cube", 4, "critpath cube edge length (cube engine)")
		critOut  = flag.String("critpath-out", "", "write the critpath report as JSON to this file")
		slowTid  = flag.Int("slow-tid", -1, "pin this thread as an artificial straggler (cube/fused; -1 = none)")
		slowMS   = flag.Float64("slow-ms", 5, "per-step delay of the -slow-tid straggler, milliseconds")
	)
	flag.Parse()

	sheet := buildSheet(*sheetDims, *nx, *ny, *nz)

	if *critMode {
		runCritPath(critPathOpts{
			solver: *solver, threads: *threads, cube: *cubeSize,
			out: *critOut, slowTid: *slowTid, slowMS: *slowMS,
		}, *nx, *ny, *nz, *steps, *tau, sheet, *traceOut)
		return
	}

	s, err := core.NewSolver(core.Config{
		NX: *nx, NY: *ny, NZ: *nz, Tau: *tau,
		BodyForce: [3]float64{2e-5, 0, 0}, Sheet: sheet,
	})
	if err != nil {
		log.Fatal(err)
	}
	// One registry backs everything: the gprof-style report reads the
	// same lbmib_kernel_nanos_total counters /metrics serves, so the two
	// renderings cannot disagree.
	reg := telemetry.NewRegistry()
	prof := perfmon.NewProfile(reg, 0)
	probes := core.Probes{prof}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer()
		probes = append(probes, tracer)
	}
	if *metricsAddr != "" {
		probes = append(probes, telemetry.NewLatencies(reg, true))
		e, err := telemetry.Serve(*metricsAddr, reg, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer e.Close()
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", e.Addr())
	}
	s.Probe = probes

	fmt.Printf("profiling %d steps of %d×%d×%d", *steps, *nx, *ny, *nz)
	if sheet != nil {
		fmt.Printf(" with %d fiber nodes", sheet.NumNodes())
	}
	fmt.Println()
	t0 := time.Now()
	s.Run(*steps)
	fmt.Printf("wall time %v\n\n", time.Since(t0).Round(time.Millisecond))
	fmt.Print(prof.Report())

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
}
