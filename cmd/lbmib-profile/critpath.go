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
	"lbmib/internal/fusereport"
	"lbmib/internal/omp"
	"lbmib/internal/telemetry"
)

// critPathOpts carries the -critpath mode's flags.
type critPathOpts struct {
	solver  string // cube | fused | fused-f32 | omp
	threads int
	cube    int
	out     string // JSON report path ("" = none)
	fuse    string // fusibility report path ("" = untagged what-ifs)
	slowTid int    // artificial straggler thread (-1 = none)
	slowMS  float64
}

// phaseFan forwards each phase completion to the Chrome tracer and the
// profiler, optionally pinning one thread as an artificial straggler by
// sleeping after its collide_stream slice (on the worker, before the
// next barrier — exactly where a real straggler loses time).
type phaseFan struct {
	tracer  *telemetry.Tracer
	prof    *critpath.Profiler
	slowTid int
	slowFor time.Duration
}

func (f *phaseFan) PhaseDone(step, tid int, p cubesolver.Phase, d time.Duration) {
	if f.slowFor > 0 && tid == f.slowTid && p == cubesolver.PhaseCollideStream {
		time.Sleep(f.slowFor)
		d += f.slowFor
	}
	if f.tracer != nil {
		f.tracer.PhaseDone(step, tid, p, d)
	}
	f.prof.PhaseDone(step, tid, p, d)
}

// runCritPath drives the selected engine for steps time steps with the
// profiler attached and renders the report.
func runCritPath(o critPathOpts, nx, ny, nz, steps int, tau float64, sheet *fiber.Sheet, traceOut string) {
	var tracer *telemetry.Tracer
	if traceOut != "" {
		tracer = telemetry.NewTracer()
	}
	prof := critpath.New(critpath.Config{
		Engine:  o.solver,
		Threads: o.threads,
		Tracer:  tracer,
	})
	fan := &phaseFan{tracer: tracer, prof: prof, slowTid: o.slowTid, slowFor: time.Duration(o.slowMS * float64(time.Millisecond))}

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
		s.Observer = fan
		s.Arrivals = prof
		run, cleanup = s.Run, s.Close
	case "fused", "fused-f32":
		s, err := fused.NewSolver(fused.Config{
			Config: base, Threads: o.threads, Float32: o.solver == "fused-f32",
		})
		if err != nil {
			log.Fatal(err)
		}
		s.Observer = fan
		s.Arrivals = prof
		run, cleanup = s.Run, s.Close
	case "omp":
		if o.slowTid >= 0 {
			log.Fatal("-slow-tid is supported by the cube and fused engines only")
		}
		s, err := omp.NewSolver(omp.Config{Config: base, Threads: o.threads})
		if err != nil {
			log.Fatal(err)
		}
		s.Regions = prof
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
	if o.fuse != "" {
		rep, err := fusereport.Load(o.fuse)
		if err != nil {
			log.Fatal(err)
		}
		engine := o.solver
		if engine == "fused-f32" {
			engine = "fused"
		}
		critpath.AddWhatIfWithProofs(&r, nodes, rep.FindEngine(engine))
	} else {
		critpath.AddWhatIf(&r, nodes)
	}
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
