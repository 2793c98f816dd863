package core

import (
	"math"
	"testing"

	"lbmib/internal/lattice"
)

// Cross-engine agreement cannot see an error every engine shares, and
// every engine shares the node kernel. These two oracles pin the
// sequential engine to analytic solutions at more than one resolution and
// assert the observed order of convergence: second order is what the
// scheme (BGK, Guo forcing with the half-force velocity, halfway
// bounce-back) is derived to deliver, and an arithmetic slip in the
// collision or the moments shows as an error that stops shrinking.

// observedOrder is the convergence order read off two resolutions h1 < h2
// (node counts across the length that is held fixed) with errors e1, e2.
func observedOrder(h1, h2, e1, e2 float64) float64 {
	return math.Log(e1/e2) / math.Log(h2/h1)
}

// taylorGreenError runs the decaying Taylor–Green vortex on an n×n×2
// periodic box in diffusive scaling — viscosity fixed, velocity ∝ 1/n,
// steps ∝ n², so every n integrates the same flow to the same physical
// time, about one e-folding of the velocity — and returns the relative L2
// error of the velocity field against exp(−2νk²t) times the initial field.
func taylorGreenError(n int) float64 {
	const tau = 0.8
	nu := lattice.ViscosityFromTau(tau)
	k := 2 * math.Pi / float64(n)
	u0 := 0.32 / float64(n)
	steps := 40 * n * n / 256
	exact := func(x, y int, amp float64) (ux, uy float64) {
		sx, cx := math.Sincos(k * float64(x))
		sy, cy := math.Sincos(k * float64(y))
		return amp * sx * cy, -amp * cx * sy
	}

	s := MustNewSolver(Config{NX: n, NY: n, NZ: 2, Tau: tau})
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			ux, uy := exact(x, y, u0)
			// The pressure of the exact solution, as a density.
			rho := 1 + 0.75*u0*u0*(math.Cos(2*k*float64(x))+math.Cos(2*k*float64(y)))
			for z := 0; z < 2; z++ {
				nd := s.Fluid.At(x, y, z)
				nd.Rho, nd.Vel = rho, [3]float64{ux, uy, 0}
				lattice.Equilibrium(rho, nd.Vel, &nd.DF)
				nd.DFNew = nd.DF
			}
		}
	}
	s.Run(steps)

	amp := u0 * math.Exp(-2*nu*k*k*float64(steps))
	var num, den float64
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			ux, uy := exact(x, y, amp)
			got := s.Fluid.At(x, y, 0).Vel
			num += (got[0]-ux)*(got[0]-ux) + (got[1]-uy)*(got[1]-uy) + got[2]*got[2]
			den += ux*ux + uy*uy
		}
	}
	return math.Sqrt(num / den)
}

func TestTaylorGreenConvergenceOrder(t *testing.T) {
	e16, e32 := taylorGreenError(16), taylorGreenError(32)
	order := observedOrder(16, 32, e16, e32)
	t.Logf("Taylor–Green relative L2 error: N=16 %.3e, N=32 %.3e, observed order %.2f", e16, e32, order)
	if order < 1.8 {
		t.Fatalf("observed order %.2f < 1.8 (errors %.3e → %.3e)", order, e16, e32)
	}
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
