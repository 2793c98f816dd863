// The -critpath mode: run a parallel engine under the critical-path
// profiler and print per-site last-arriver attribution, wait-cause
// classes, the reconstructed last-arriver chains, and the perfsim
// what-if table of predicted MLUPS gains. A pinned artificial straggler
// (-slow-tid/-slow-ms) demonstrates the classifier end to end.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/critpath"
	"lbmib/internal/cubesolver"
	"lbmib/internal/fiber"
	"lbmib/internal/fused"
	"lbmib/internal/omp"
	"lbmib/internal/telemetry"
)

// critPathOpts carries the -critpath mode's flags.
type critPathOpts struct {
	solver  string // cube | fused | fused-f32 | omp
	threads int
	cube    int
	out     string // JSON report path ("" = none)
	slowTid int    // artificial straggler thread (-1 = none)
	slowMS  float64
}

// straggler forwards every event to the sinks, pinning thread tid (none
// when it is −1) as an artificial straggler by sleeping after its
// collide_stream slice (on the worker, before the next barrier — exactly
// where a real straggler loses time).
type straggler struct {
	core.Probes
	tid   int
	delay time.Duration
}

func (s straggler) Emit(e core.Event) {
	if e.Kind == core.PhaseDone && e.Tid == s.tid && e.Phase == core.PhaseCollideStream {
		time.Sleep(s.delay)
		e.D += s.delay
	}
	s.Probes.Emit(e)
}

// runCritPath drives the selected engine for steps time steps with the
// profiler attached and renders the report.
func runCritPath(o critPathOpts, nx, ny, nz, steps int, tau float64, sheet *fiber.Sheet, traceOut string) {
	var sinks core.Probes
	var tracer *telemetry.Tracer
	if traceOut != "" {
		tracer = telemetry.NewTracer()
		sinks = append(sinks, tracer)
	}
	prof := critpath.New(critpath.Config{
		Engine:  o.solver,
		Threads: o.threads,
		Tracer:  tracer,
	})
	sinks = append(sinks, prof)
	probe := straggler{sinks, o.slowTid, time.Duration(o.slowMS * float64(time.Millisecond))}

	base := core.Config{
		NX: nx, NY: ny, NZ: nz, Tau: tau,
		BodyForce: [3]float64{2e-5, 0, 0}, Sheet: sheet,
	}
	var run func(n int)
	var cleanup func()
	switch o.solver {
	case "cube":
		s, err := cubesolver.NewSolver(cubesolver.Config{Config: base, CubeSize: o.cube, Threads: o.threads})
		if err != nil {
			log.Fatal(err)
		}
		s.Probe = probe
		run, cleanup = s.Run, s.Close
	case "fused", "fused-f32":
		s, err := fused.NewSolver(fused.Config{
			Config: base, Threads: o.threads, Float32: o.solver == "fused-f32",
		})
		if err != nil {
			log.Fatal(err)
		}
		s.Probe = probe
		run, cleanup = s.Run, s.Close
	case "omp":
		if o.slowTid >= 0 {
			log.Fatal("-slow-tid is supported by the cube and fused engines only")
		}
		s, err := omp.NewSolver(omp.Config{Config: base, Threads: o.threads})
		if err != nil {
			log.Fatal(err)
		}
		s.Probe = probe
		run, cleanup = s.Run, s.Close
	default:
		log.Fatalf("unknown -solver %q (cube | fused | fused-f32 | omp)", o.solver)
	}
	defer cleanup()

	fmt.Printf("critical-path profiling %d steps of %d×%d×%d on %s, %d threads",
		steps, nx, ny, nz, o.solver, o.threads)
	if sheet != nil {
		fmt.Printf(", %d fiber nodes", sheet.NumNodes())
	}
	if o.slowTid >= 0 {
		fmt.Printf(", thread %d slowed %.1fms/step", o.slowTid, o.slowMS)
	}
	fmt.Println()
	t0 := time.Now()
	run(steps)
	wall := time.Since(t0)
	nodes := float64(nx) * float64(ny) * float64(nz)
	fmt.Printf("wall time %v (%.2f MLUPS)\n\n",
		wall.Round(time.Millisecond), nodes*float64(steps)/wall.Seconds()/1e6)

	r := prof.Report()
	critpath.AddWhatIf(&r, nodes)
	critpath.Render(os.Stdout, r)

	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			log.Fatal(err)
		}
		if err := critpath.WriteJSON(f, r); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nreport written to %s\n", o.out)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (flow arrows link each release's last arriver to the waiters)\n", traceOut)
	}
}
