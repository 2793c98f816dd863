// Command lbmib-cluster runs the distributed-memory LBM-IB solver (the
// paper's "immediate future work"): the fluid grid is decomposed into
// x-slabs across message-passing ranks (goroutine processes here; the
// same protocol would run over MPI on a cluster), with halo exchange for
// streaming and an ordered reduction for the fiber coupling. The tool
// reports communication volume and optionally verifies the result against
// the sequential solver.
//
//	lbmib-cluster -ranks 4 -nx 64 -ny 32 -nz 32 -steps 100 -verify
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"lbmib/internal/cluster"
	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/flightrec"
	"lbmib/internal/telemetry"
	"lbmib/internal/validate"
)

// teeObserver fans each per-rank phase sample out to several sinks
// (the Chrome tracer and the flight recorder can both be active).
type teeObserver []cluster.PhaseObserver

func (t teeObserver) PhaseDone(step, rank int, p cluster.Phase, d time.Duration) {
	for _, o := range t {
		o.PhaseDone(step, rank, p, d) //lint:allow observercheck -- tee elements are appended only when non-nil; the tee itself is only installed when non-empty
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbmib-cluster: ")
	var (
		nx           = flag.Int("nx", 64, "fluid nodes along x (must divide by ranks)")
		ny           = flag.Int("ny", 32, "fluid nodes along y")
		nz           = flag.Int("nz", 32, "fluid nodes along z")
		ranks        = flag.Int("ranks", 4, "message-passing ranks (x-slabs)")
		steps        = flag.Int("steps", 50, "time steps")
		tau          = flag.Float64("tau", 0.7, "BGK relaxation time")
		force        = flag.Float64("force", 2e-5, "driving force along x")
		sheetN       = flag.Int("sheet", 16, "fiber sheet edge (0 for fluid-only)")
		verify       = flag.Bool("verify", false, "compare against the sequential solver")
		traceOut     = flag.String("trace", "", "write a Chrome trace-event timeline (one track per rank) to this file")
		flightrecDir = flag.String("flightrec", "", "record per-rank phase timings; write a post-mortem bundle here if -verify finds a divergence")
	)
	flag.Parse()

	mkSheet := func() *fiber.Sheet {
		if *sheetN <= 0 {
			return nil
		}
		w := float64(*sheetN) * 0.4
		return fiber.NewSheet(fiber.Params{
			NumFibers: *sheetN, NodesPerFiber: *sheetN, Width: w, Height: w,
			Origin: fiber.Vec3{float64(*nx) / 4, float64(*ny)/2 - w/2, float64(*nz)/2 - w/2},
			Ks:     0.05, Kb: 0.001,
		})
	}
	cfg := cluster.Config{
		NX: *nx, NY: *ny, NZ: *nz, Ranks: *ranks, Steps: *steps, Tau: *tau,
		BodyForce: [3]float64{*force, 0, 0},
	}
	if sh := mkSheet(); sh != nil {
		cfg.Sheets = []*fiber.Sheet{sh}
	}
	var (
		tracer *telemetry.Tracer
		rec    *flightrec.Recorder
		obs    teeObserver
	)
	if *traceOut != "" {
		tracer = telemetry.NewTracer()
		obs = append(obs, tracer.ClusterObserver())
	}
	if *flightrecDir != "" {
		rec = flightrec.New(flightrec.Config{Dir: *flightrecDir})
		rec.SetRunSpec(flightrec.RunSpec{
			NX: *nx, NY: *ny, NZ: *nz, Tau: *tau,
			BodyForce: cfg.BodyForce,
			BoundaryX: "periodic", BoundaryY: "periodic", BoundaryZ: "periodic",
			Solver: "cluster", Threads: *ranks,
		})
		obs = append(obs, rec.ClusterObserver())
	}
	if len(obs) == 1 {
		cfg.Observer = obs[0]
	} else if len(obs) > 1 {
		cfg.Observer = obs
	}

	t0 := time.Now()
	res, err := cluster.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0)
	if rec != nil && *steps > 0 {
		// The ring already holds per-rank phase timings; stamp the final
		// step with the mean wall time so the bundle's trace has a scale.
		perStep := elapsed / time.Duration(*steps)
		mlups := float64(*nx) * float64(*ny) * float64(*nz) / perStep.Seconds() / 1e6
		rec.RecordStep(*steps, perStep, mlups, 0)
	}
	fmt.Printf("ranks=%d grid=%d×%d×%d steps=%d wall=%v\n",
		*ranks, *nx, *ny, *nz, *steps, elapsed.Round(time.Millisecond))
	fmt.Printf("communication: %d messages, %.2f MB (%.1f KB/step/rank)\n",
		res.Messages, float64(res.FloatsSent)*8/1e6,
		float64(res.FloatsSent)*8/1024/float64(*steps)/float64(*ranks))
	fmt.Printf("max fluid speed %.5f, total mass %.3f\n",
		res.Fluid.MaxVelocity(), res.Fluid.TotalMass())

	if tracer != nil {
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

	if *verify {
		ref, err := core.NewSolver(core.Config{
			NX: *nx, NY: *ny, NZ: *nz, Tau: *tau,
			BodyForce: [3]float64{*force, 0, 0},
			Sheet:     mkSheet(),
		})
		if err != nil {
			log.Fatal(err)
		}
		ref.Run(*steps)
		d, err := validate.Grids(ref.Fluid, res.Fluid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("verification vs sequential: %v\n", d)
		if !d.Within(validate.DefaultTol) {
			if rec != nil {
				if dir, err := rec.WriteBundle("divergence", nil); err == nil {
					log.Printf("post-mortem bundle written to %s (inspect with lbmib-postmortem)", dir)
				}
			}
			log.Fatal("distributed result diverges from the sequential solver")
		}
		fmt.Println("distributed result matches the sequential solver")
	}
}
