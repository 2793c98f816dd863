// Command lbmib-sim runs one LBM-IB fluid–structure interaction
// simulation with a selectable engine, printing progress diagnostics and
// optionally writing CSV/VTK snapshots.
//
// Example: a flexible sheet in a driven tunnel flow on the cube-based
// engine with 4 workers —
//
//	lbmib-sim -solver cube -threads 4 -nx 64 -ny 32 -nz 32 -k 8 \
//	          -steps 200 -sheet 26x26 -out /tmp/run -snap-every 50
//
// "lbmib-sim postmortem [-ring N] [-replay] [-steps N] BUNDLE_DIR"
// inspects and replays the bundle a -flightrec run leaves behind.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"lbmib"
	"lbmib/internal/flightrec"
	"lbmib/internal/perfmon"
	"lbmib/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbmib-sim: ")
	if len(os.Args) > 1 && os.Args[1] == "postmortem" {
		postmortem(os.Args[2:])
		return
	}

	var (
		solverName = flag.String("solver", "seq", "engine: seq, omp or cube")
		nx         = flag.Int("nx", 32, "fluid nodes along x")
		ny         = flag.Int("ny", 32, "fluid nodes along y")
		nz         = flag.Int("nz", 32, "fluid nodes along z")
		steps      = flag.Int("steps", 100, "time steps to simulate")
		threads    = flag.Int("threads", 1, "worker threads for parallel engines")
		cubeSize   = flag.Int("k", 4, "cube edge size for the cube engine")
		tau        = flag.Float64("tau", 0.7, "BGK relaxation time (> 0.5)")
		force      = flag.Float64("force", 2e-5, "uniform driving force along x")
		sheetDims  = flag.String("sheet", "16x16", "fiber sheet as FIBERSxNODES; empty for fluid-only")
		ks         = flag.Float64("ks", 0.05, "sheet stretching stiffness")
		kb         = flag.Float64("kb", 0.001, "sheet bending stiffness")
		fixRadius  = flag.Float64("fix", 0, "fasten sheet nodes within this radius of its center")
		noSlipZ    = flag.Bool("walls", false, "no-slip walls on the z boundaries")
		outDir     = flag.String("out", "", "directory for CSV/VTK snapshots")
		snapEvery  = flag.Int("snap-every", 0, "write snapshots every N steps (0: only final)")
		report     = flag.Int("report-every", 20, "print diagnostics every N steps")

		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /healthz and pprof on this address (e.g. :9100)")
		traceOut     = flag.String("trace", "", "write a Chrome trace-event timeline to this file (open in Perfetto)")
		jsonlOut     = flag.String("jsonl", "", "append one JSON line per step (step, mass, maxVel, kernelMillis, mlups)")
		watch        = flag.Bool("watchdog", false, "check physics health every step; stop at the first unstable step")
		flightrecDir = flag.String("flightrec", "", "keep an always-on flight recorder; write a post-mortem bundle to this directory if the run goes bad (implies -watchdog)")
		critPath     = flag.Bool("critpath", false, "profile the run and print at exit: Table I kernel shares (seq, omp), load imbalance and barrier-wait share, last arriver per barrier site, wait causes and a what-if table; gauges appear under -metrics-addr")
	)
	flag.Parse()

	kind, err := lbmib.ParseSolverKind(*solverName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := lbmib.Config{
		NX: *nx, NY: *ny, NZ: *nz,
		Tau:       *tau,
		BodyForce: [3]float64{*force, 0, 0},
		Solver:    kind,
		Threads:   *threads,
		CubeSize:  *cubeSize,
		CritPath:  *critPath,
	}
	if *noSlipZ {
		cfg.BoundaryZ = lbmib.NoSlip
	}
	var (
		reg   *telemetry.Registry
		wd    *telemetry.Watchdog
		jsonl *os.File
	)
	if *metricsAddr != "" || *traceOut != "" {
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	cfg.TraceFile = *traceOut
	if *watch || *flightrecDir != "" {
		wd = telemetry.NewWatchdog(telemetry.WatchdogConfig{Registry: reg})
		cfg.Watchdog = wd
	}
	if *flightrecDir != "" {
		cfg.FlightRec = &flightrec.Config{Dir: *flightrecDir}
	}
	if *jsonlOut != "" {
		f, err := os.Create(*jsonlOut)
		if err != nil {
			log.Fatal(err)
		}
		jsonl = f
		defer jsonl.Close()
		cfg.LogWriter = jsonl
	}
	if *sheetDims != "" {
		var nf, nn int
		if _, err := fmt.Sscanf(*sheetDims, "%dx%d", &nf, &nn); err != nil {
			log.Fatalf("bad -sheet %q: want FIBERSxNODES", *sheetDims)
		}
		w := float64(nf) * 0.4
		h := float64(nn) * 0.4
		cfg.Sheet = &lbmib.SheetConfig{
			NumFibers: nf, NodesPerFiber: nn,
			Width: w, Height: h,
			Origin: [3]float64{
				float64(*nx) / 4,
				float64(*ny)/2 - w/2,
				float64(*nz)/2 - h/2,
			},
			Ks: *ks, Kb: *kb, FixedRadius: *fixRadius,
		}
	}

	sim, err := lbmib.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := sim.Close(); err != nil {
			log.Fatal(err)
		}
		// Close delivers the last step's sample (Config.Watchdog), so a
		// violation in the final state surfaces only now.
		if err := sim.Health(); err != nil {
			log.Fatalf("watchdog: %v", err)
		}
		if *traceOut != "" {
			fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
		}
	}()

	if *metricsAddr != "" {
		exp, err := telemetry.Serve(*metricsAddr, reg, wd)
		if err != nil {
			log.Fatal(err)
		}
		defer exp.Close()
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", exp.Addr())
	}

	run := sim.Config()
	fmt.Printf("engine=%s grid=%d×%d×%d tau=%.3g threads=%d steps=%d\n",
		run.Solver, run.NX, run.NY, run.NZ, run.Tau, run.Threads, *steps)
	if sim.HasSheet() {
		c, _ := sim.SheetCentroid()
		fmt.Printf("sheet=%s nodes, centroid=%.2f %.2f %.2f\n", *sheetDims, c[0], c[1], c[2])
	}

	start := time.Now()
	for done := 0; done < *steps; {
		batch := *report
		if batch <= 0 || done+batch > *steps {
			batch = *steps - done
		}
		sim.Run(batch)
		if err := sim.Health(); err != nil {
			if rec := sim.FlightRecorder(); rec != nil {
				if dir, ok := rec.BundleDir(); ok {
					log.Printf("post-mortem bundle written to %s (inspect with lbmib-sim postmortem)", dir)
				}
			}
			log.Fatalf("watchdog: %v", err)
		}
		done += batch
		line := fmt.Sprintf("step %5d  maxU=%.4g  mass=%.6f", done, sim.MaxVelocity(), sim.TotalMass())
		if sim.HasSheet() {
			c, _ := sim.SheetCentroid()
			e, _ := sim.SheetEnergy()
			line += fmt.Sprintf("  sheetX=%.3f  E=%.4g", c[0], e)
		}
		fmt.Println(line)
		if *outDir != "" && *snapEvery > 0 && done%*snapEvery == 0 && done < *steps {
			if err := writeSnapshots(sim, *outDir, done); err != nil {
				log.Fatal(err)
			}
		}
	}
	elapsed := time.Since(start)
	mlups := float64(*nx) * float64(*ny) * float64(*nz) * float64(*steps) / elapsed.Seconds() / 1e6
	fmt.Printf("completed %d steps in %v (%.3f ms/step, %.2f MLUPS)\n",
		*steps, elapsed.Round(time.Millisecond),
		float64(elapsed.Milliseconds())/float64(*steps), mlups)

	if r, ok := sim.CritPathReport(); ok {
		fmt.Println()
		perfmon.Render(os.Stdout, r)
	}

	if *outDir != "" {
		if err := writeSnapshots(sim, *outDir, *steps); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshots written to %s\n", *outDir)
	}
}

func writeSnapshots(sim *lbmib.Simulation, dir string, step int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(fmt.Sprintf("fluid_%06d.vtk", step), sim.WriteFluidVTK); err != nil {
		return err
	}
	if sim.HasSheet() {
		if err := write(fmt.Sprintf("sheet_%06d.vtk", step), sim.WriteSheetVTK); err != nil {
			return err
		}
		if err := write(fmt.Sprintf("sheet_%06d.csv", step), sim.WriteSheetCSV); err != nil {
			return err
		}
	}
	return nil
}
