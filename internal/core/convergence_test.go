package core

import (
	"math"
	"testing"

	"lbmib/internal/lattice"
)

// Cross-engine agreement cannot see an error every engine shares, and
// every engine shares the node kernel. This oracle pins the sequential
// engine to an analytic solution at three resolutions and asserts the
// observed order of convergence: second order is what the scheme (BGK,
// Guo forcing with the half-force velocity, halfway bounce-back) is
// derived to deliver, and an arithmetic slip in the collision or the
// moments shows as an error that stops shrinking. The Taylor–Green order
// check runs over every engine, through the facade (the root package's
// taylorgreen_test.go).

// observedOrder is the convergence order read off two resolutions h1 < h2
// (node counts across the length that is held fixed) with errors e1, e2.
func observedOrder(h1, h2, e1, e2 float64) float64 {
	return math.Log(e1/e2) / math.Log(h2/h1)
}

// poiseuilleError drives a 2×2×nz channel (bounce-back walls in z, so the
// channel is nz wide wall to wall) with a body force sized for a
// centreline velocity of 0.01 to steady state — three viscous diffusion
// times, leaving the transient thirteen orders down — and returns the
// relative L2 error against the parabola u(z) = g/2ν (z + ½)(nz − ½ − z).
func poiseuilleError(nz int) float64 {
	const tau = 0.6
	nu := lattice.ViscosityFromTau(tau)
	h := float64(nz)
	g := 0.01 * 8 * nu / (h * h)
	s := MustNewSolver(Config{NX: 2, NY: 2, NZ: nz, Tau: tau, BCZ: BounceBack,
		BodyForce: [3]float64{g, 0, 0}})
	s.Run(int(3 * h * h / nu))
	var num, den float64
	for z := 0; z < nz; z++ {
		zz := float64(z)
		want := g / (2 * nu) * (zz + 0.5) * (h - 0.5 - zz)
		got := s.Fluid.At(1, 1, z).Vel[0]
		num += (got - want) * (got - want)
		den += want * want
	}
	return math.Sqrt(num / den)
}

func TestPoiseuilleConvergenceOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("long relaxation to steady state at three resolutions")
	}
	widths := []int{9, 17, 33}
	errs := make([]float64, len(widths))
	for i, nz := range widths {
		errs[i] = poiseuilleError(nz)
	}
	for i := 1; i < len(widths); i++ {
		order := observedOrder(float64(widths[i-1]), float64(widths[i]), errs[i-1], errs[i])
		t.Logf("Poiseuille relative L2 error: NZ=%d %.3e, NZ=%d %.3e, observed order %.2f",
			widths[i-1], errs[i-1], widths[i], errs[i], order)
		if order < 1.8 {
			t.Fatalf("observed order %.2f < 1.8 between NZ=%d and NZ=%d (errors %.3e → %.3e)",
				order, widths[i-1], widths[i], errs[i-1], errs[i])
		}
	}
}
