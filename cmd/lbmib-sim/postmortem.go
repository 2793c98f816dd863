package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math"

	"lbmib"
	"lbmib/internal/flightrec"
	"lbmib/internal/telemetry"
)

// postmortem is the postmortem subcommand: it inspects a flight-recorder
// bundle (schema lbmib-flightrec/v1) written after a watchdog latch, a
// panic, a crosscheck divergence, or on demand. It pretty-prints the
// manifest, the fault localization report and the tail of the step ring,
// and can replay the bundled last-healthy checkpoint to reproduce the
// failure.
//
//	lbmib-sim postmortem /tmp/run/postmortem
//	lbmib-sim postmortem -ring 20 /tmp/run/postmortem
//	lbmib-sim postmortem -replay /tmp/run/postmortem
func postmortem(args []string) {
	log.SetPrefix("lbmib-sim postmortem: ")
	fs := flag.NewFlagSet("lbmib-sim postmortem", flag.ExitOnError)
	var (
		ringTail = fs.Int("ring", 10, "print the last N ring records (0: none)")
		replay   = fs.Bool("replay", false, "restore the bundled checkpoint and re-run to the failure step under a fresh watchdog")
		steps    = fs.Int("steps", 0, "override replay step count (default: through the recorded failure window)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits inside Parse
	if fs.NArg() != 1 {
		log.Fatal("usage: lbmib-sim postmortem [flags] BUNDLE_DIR")
	}
	b, err := flightrec.ReadBundle(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	m := b.Manifest
	fmt.Printf("bundle %s (%s)\n", b.Dir, m.Schema)
	fmt.Printf("  reason:    %s\n", m.Reason)
	fmt.Printf("  written:   %s\n", m.WrittenAt)
	fmt.Printf("  binary:    %s (%s)\n", m.Version, m.GoVersion)
	fmt.Printf("  last step: %d, snapshot at step %d\n", m.LastStep, m.SnapshotStep)
	if r := m.Run; r != nil {
		fmt.Printf("  run:       %s engine, %d×%d×%d grid, tau=%g, %d threads, %d sheets\n",
			r.Solver, r.NX, r.NY, r.NZ, r.Tau, r.Threads, len(r.Sheets))
	}
	if h := m.Health; h != nil {
		fmt.Printf("\nwatchdog verdict (step %d):\n  %s\n", h.Step, h.Reason)
		if len(h.Cell) == 3 {
			fmt.Printf("  first bad cell: (%d,%d,%d)\n", h.Cell[0], h.Cell[1], h.Cell[2])
		}
		if h.Cube >= 0 {
			fmt.Printf("  cube %d, phase %s\n", h.Cube, h.Phase)
		}
	}

	loc := b.Localization
	if loc.Found {
		fmt.Printf("\nfault localization:\n")
		fmt.Printf("  first anomaly: step %d (previous digested step %d)\n", loc.Step, loc.PrevStep)
		fmt.Printf("  kind: %s — %s\n", loc.Kind, loc.Detail)
		fmt.Printf("  cube %d at tile coord (%d,%d,%d), cells from (%d,%d,%d), tile size %d\n",
			loc.Cube, loc.CubeCoord[0], loc.CubeCoord[1], loc.CubeCoord[2],
			loc.CellOrigin[0], loc.CellOrigin[1], loc.CellOrigin[2], loc.TileSize)
		fmt.Printf("  suspect phase: %s (kernels: %v)\n", loc.Phase, loc.Kernels)
	} else {
		fmt.Printf("\nfault localization: no per-cube anomaly in the recorded window\n")
	}

	if *ringTail > 0 && len(b.Records) > 0 {
		recs := b.Records
		if len(recs) > *ringTail {
			recs = recs[len(recs)-*ringTail:]
		}
		fmt.Printf("\nlast %d recorded steps:\n", len(recs))
		fmt.Printf("  %6s  %9s  %7s  %12s  %9s  %s\n", "step", "wall", "MLUPS", "mass", "maxVel", "nonFinite")
		for _, r := range recs {
			mass, maxV, nf := "-", "-", "-"
			if r.HasDigest {
				mass = fmt.Sprintf("%.6f", r.Mass)
				maxV = fmt.Sprintf("%.4g", r.MaxVel)
				nf = fmt.Sprintf("%d", r.NonFinite)
			}
			fmt.Printf("  %6d  %8.3fms  %7.2f  %12s  %9s  %s\n",
				r.Step, 1e3*r.WallSeconds, r.MLUPS, mass, maxV, nf)
		}
	}

	if !*replay {
		return
	}
	if m.Run == nil {
		log.Fatal("replay: bundle has no run spec")
	}
	if len(b.Checkpoint) == 0 {
		log.Fatal("replay: bundle has no checkpoint (the run failed before the first snapshot)")
	}
	cfg, err := lbmib.ConfigFromRunSpec(*m.Run)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	wd := telemetry.NewWatchdog(telemetry.WatchdogConfig{})
	cfg.Watchdog = wd
	sim, err := lbmib.Restore(bytes.NewReader(b.Checkpoint), cfg)
	if err != nil {
		log.Fatalf("replay: restore: %v", err)
	}
	defer sim.Close()

	n := *steps
	if n <= 0 {
		// Through the recorded failure window, with slack for drift that
		// needed a few steps to cross the watchdog's thresholds.
		n = m.LastStep - m.SnapshotStep + 10
	}
	fmt.Printf("\nreplaying %d steps from the step-%d checkpoint on the %s engine...\n",
		n, m.SnapshotStep, m.Run.Solver)
	sim.Run(n)
	if err := sim.Health(); err != nil {
		fmt.Printf("failure reproduced at step %d:\n  %v\n", wd.FailStep(), err)
		return
	}
	fmt.Printf("no violation through step %d (mass %.6f, max speed %.4g)\n",
		sim.StepCount(), sim.TotalMass(), math.Abs(sim.MaxVelocity()))
}
