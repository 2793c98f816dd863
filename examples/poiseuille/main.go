// Poiseuille validates the fluid solver against an exact solution: plane
// channel flow between no-slip walls driven by a uniform body force. The
// steady lattice Boltzmann profile must match the analytic parabola
//
//	u(z) = g/(2ν) · (z + ½)(NZ − ½ − z)
//
// for halfway bounce-back walls. The program runs to steady state on each
// engine and prints the worst relative error — a complete cross-engine
// physics validation in one file.
//
//	go run ./examples/poiseuille
package main

import (
	"fmt"
	"log"
	"math"

	"lbmib"
)

const (
	tau = 0.9
	g   = 1e-5
	nu  = (tau - 0.5) / 3
)

// channel is one engine's run. The cube engine needs NZ divisible by its
// cube size, so it gets an 8-node channel; the others keep 9 nodes.
type channel struct {
	kind     lbmib.SolverKind
	nz, cube int
}

func main() {
	for _, c := range []channel{
		{lbmib.Sequential, 9, 0},
		{lbmib.OpenMP, 9, 0},
		{lbmib.CubeBased, 8, 4},
		{lbmib.Fused, 9, 0},
	} {
		worst, err := run(c)
		if err != nil {
			log.Fatalf("%v: %v", c.kind, err)
		}
		fmt.Printf("%-11s  %d nodes between the walls, worst relative error vs analytic parabola: %.4f%%\n",
			c.kind, c.nz, 100*worst)
		if worst > 0.02 {
			log.Fatalf("%v: error %.2f%% exceeds 2%%", c.kind, 100*worst)
		}
	}
	fmt.Println("all engines reproduce the analytic Poiseuille profile within 2%")
}

// run steps c's channel to steady state and returns the worst relative
// error of the streamwise velocity against the parabola.
func run(c channel) (float64, error) {
	sim, err := lbmib.New(lbmib.Config{
		NX: 4, NY: 4, NZ: c.nz,
		Tau:       tau,
		BodyForce: [3]float64{g, 0, 0},
		BoundaryZ: lbmib.NoSlip,
		Solver:    c.kind,
		Threads:   2,
		CubeSize:  c.cube,
	})
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	sim.Run(int(12 * float64(c.nz*c.nz) / nu))
	worst := 0.0
	for z := 0; z < c.nz; z++ {
		got := sim.FluidVelocity(2, 2, z)[0]
		zz := float64(z)
		want := g / (2 * nu) * (zz + 0.5) * (float64(c.nz) - 0.5 - zz)
		worst = math.Max(worst, math.Abs(got-want)/want)
	}
	return worst, nil
}
