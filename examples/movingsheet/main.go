// Movingsheet reproduces the scenario of the paper's Figure 7: a flexible
// elastic sheet released in a 3D tunnel flow. The tunnel has no-slip walls
// on the z boundaries, a periodic x/y wrap, and a uniform body force
// driving the flow down the x axis; the sheet starts upstream facing the
// flow, then bends and advects with it.
//
// The program writes VTK snapshots (ParaView-loadable) and sheet CSVs into
// a fresh temporary directory, whose path it prints with a trajectory
// summary on stdout. It exits non-zero unless the sheet's centroid
// advanced downstream and the fluid's maximum speed is finite and
// non-zero — a free sheet that neither spread force nor moved with the
// flow would fail.
//
//	go run ./examples/movingsheet
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"lbmib"
)

func main() {
	const (
		nx, ny, nz = 48, 24, 24
		steps      = 300
		snapEvery  = 75
	)
	sim, err := lbmib.New(lbmib.Config{
		NX: nx, NY: ny, NZ: nz,
		Tau:       0.7,
		BodyForce: [3]float64{4e-5, 0, 0},
		BoundaryZ: lbmib.NoSlip, // tunnel walls
		Sheet: &lbmib.SheetConfig{
			NumFibers:     16,
			NodesPerFiber: 16,
			Width:         8,
			Height:        8,
			Origin:        [3]float64{10, float64(ny)/2 - 4, float64(nz)/2 - 4},
			Ks:            0.04,
			Kb:            0.0008,
		},
		Solver:   lbmib.CubeBased,
		Threads:  4,
		CubeSize: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()

	outDir, err := os.MkdirTemp("", "movingsheet-")
	if err != nil {
		log.Fatal(err)
	}
	start, _ := sim.SheetCentroid()
	fmt.Printf("moving elastic sheet in a %d×%d×%d tunnel, %d steps\n", nx, ny, nz, steps)
	fmt.Println("step   centroid-x   centroid-z   stretch-energy   max-speed")
	for done := 0; done < steps; {
		sim.Run(snapEvery)
		done += snapEvery
		c, _ := sim.SheetCentroid()
		e, _ := sim.SheetEnergy()
		fmt.Printf("%4d   %10.3f   %10.3f   %14.4e   %9.5f\n",
			done, c[0], c[2], e, sim.MaxVelocity())
		if err := snapshot(sim, outDir, done); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("snapshots in %s/ (open the .vtk files in ParaView)\n", outDir)
	if c, _ := sim.SheetCentroid(); !(c[0] > start[0]) {
		log.Fatalf("the sheet did not advance downstream: centroid x %g → %g", start[0], c[0])
	}
	if v := sim.MaxVelocity(); !(v > 0) || math.IsInf(v, 0) {
		log.Fatalf("maximum speed %g is not finite and non-zero", v)
	}
}

func snapshot(sim *lbmib.Simulation, dir string, step int) error {
	sheet, err := os.Create(filepath.Join(dir, fmt.Sprintf("sheet_%04d.vtk", step)))
	if err != nil {
		return err
	}
	defer sheet.Close()
	if err := sim.WriteSheetVTK(sheet); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, fmt.Sprintf("sheet_%04d.csv", step)))
	if err != nil {
		return err
	}
	defer csv.Close()
	return sim.WriteSheetCSV(csv)
}
