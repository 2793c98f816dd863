package lbmib

import (
	"fmt"
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/lattice"
)

// Taylor–Green vortex: the 2D-in-3D initial field
//
//	u_x =  U sin(kx) cos(ky),  u_y = −U cos(kx) sin(ky),  u_z = 0
//
// is an exact Navier–Stokes solution that decays as exp(−2νk²t) with its
// shape frozen. This is the strongest closed-form validation available
// for a periodic LBM solver: both the decay rate (viscosity) and the
// preserved mode shape are checked.
func TestTaylorGreenVortexDecay(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of steps")
	}
	const (
		n   = 32
		tau = 0.8
		U   = 1e-3
	)
	nu := lattice.ViscosityFromTau(tau)
	k := 2 * math.Pi / float64(n)

	s := core.MustNewSolver(core.Config{NX: n, NY: n, NZ: 4, Tau: tau})
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			ux := U * math.Sin(k*float64(x)) * math.Cos(k*float64(y))
			uy := -U * math.Cos(k*float64(x)) * math.Sin(k*float64(y))
			for z := 0; z < 4; z++ {
				nd := s.Fluid.At(x, y, z)
				u := [3]float64{ux, uy, 0}
				var geq [lattice.Q]float64
				lattice.Equilibrium(1, u, &geq)
				s.Fluid.Store(s.Fluid.Idx(x, y, z), &geq)
				nd.Vel = u
				nd.Rho = 1
			}
		}
	}

	const steps = 300
	s.Run(steps)

	decay := math.Exp(-2 * nu * k * k * float64(steps))
	worst := 0.0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			got := s.Fluid.At(x, y, 1).Vel
			wantX := U * math.Sin(k*float64(x)) * math.Cos(k*float64(y)) * decay
			wantY := -U * math.Cos(k*float64(x)) * math.Sin(k*float64(y)) * decay
			if e := math.Abs(got[0] - wantX); e > worst {
				worst = e
			}
			if e := math.Abs(got[1] - wantY); e > worst {
				worst = e
			}
			if e := math.Abs(got[2]); e > worst {
				worst = e
			}
		}
	}
	// 2% of the initial amplitude over 300 steps of decay.
	if worst > 0.02*U {
		t.Fatalf("Taylor–Green worst pointwise error %.3e exceeds %.3e", worst, 0.02*U)
	}

	// The kinetic energy must have decayed by the analytic factor.
	energy := 0.0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			v := s.Fluid.At(x, y, 0).Vel
			energy += v[0]*v[0] + v[1]*v[1]
		}
	}
	initial := 0.0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			ux := U * math.Sin(k*float64(x)) * math.Cos(k*float64(y))
			uy := -U * math.Cos(k*float64(x)) * math.Sin(k*float64(y))
			initial += ux*ux + uy*uy
		}
	}
	gotRatio := energy / initial
	wantRatio := decay * decay
	if math.Abs(gotRatio-wantRatio) > 0.03*wantRatio {
		t.Fatalf("energy decay ratio %.5f, analytic %.5f", gotRatio, wantRatio)
	}
}

// taylorGreenError runs the decaying Taylor–Green vortex on cfg's engine
// over an n×n×2 periodic box in diffusive scaling — viscosity fixed,
// velocity ∝ 1/n, steps ∝ n², so every n integrates the same flow to the
// same physical time, about one e-folding of the velocity — and returns
// the relative L2 error of the velocity field against exp(−2νk²t) times
// the initial field. The initial state is written into the engine's live
// layout, as Restore writes a checkpoint.
func taylorGreenError(t *testing.T, cfg Config, n int) float64 {
	t.Helper()
	const tau = 0.8
	cfg.NX, cfg.NY, cfg.NZ, cfg.Tau, cfg.CubeSize = n, n, 2, tau, 2
	nu := lattice.ViscosityFromTau(tau)
	k := 2 * math.Pi / float64(n)
	u0 := 0.32 / float64(n)
	steps := 40 * n * n / 256
	exact := func(x, y int, amp float64) (ux, uy float64) {
		sx, cx := math.Sincos(k * float64(x))
		sy, cy := math.Sincos(k * float64(y))
		return amp * sx * cy, -amp * cx * sy
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := s.eng.live()
	macro := l.Macros()
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			ux, uy := exact(x, y, u0)
			// The pressure of the exact solution, as a density.
			rho := 1 + 0.75*u0*u0*(math.Cos(2*k*float64(x))+math.Cos(2*k*float64(y)))
			for z := 0; z < 2; z++ {
				i := l.Idx(x, y, z)
				macro[i].Rho, macro[i].Vel = rho, [3]float64{ux, uy, 0}
				var geq [lattice.Q]float64
				lattice.Equilibrium(rho, macro[i].Vel, &geq)
				l.Store(i, &geq)
			}
		}
	}
	s.eng.loaded()
	s.Run(steps)

	amp := u0 * math.Exp(-2*nu*k*k*float64(steps))
	var num, den float64
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			ux, uy := exact(x, y, amp)
			got := s.FluidVelocity(x, y, 0)
			num += (got[0]-ux)*(got[0]-ux) + (got[1]-uy)*(got[1]-uy) + got[2]*got[2]
			den += ux*ux + uy*uy
		}
	}
	return math.Sqrt(num / den)
}

// Cross-engine agreement cannot see an error every engine shares, so the
// order of convergence is pinned on every engine at one and two threads:
// second order is what the scheme (BGK, Guo forcing with the half-force
// velocity) is derived to deliver, and an arithmetic or storage slip shows
// as an error that stops shrinking (a first-order slip reads about 1).
// Every engine owes 1.8.
func TestTaylorGreenConvergenceOrder(t *testing.T) {
	const floor = 1.8
	for _, e := range sampledEngines {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dt", e.name, threads), func(t *testing.T) {
				cfg := Config{Solver: e.kind, Threads: threads}
				e16, e32 := taylorGreenError(t, cfg, 16), taylorGreenError(t, cfg, 32)
				order := math.Log(e16/e32) / math.Log(2)
				t.Logf("relative L2 error: N=16 %.3e, N=32 %.3e, observed order %.2f", e16, e32, order)
				if order < floor {
					t.Fatalf("observed order %.2f < %.1f (errors %.3e → %.3e)", order, floor, e16, e32)
				}
			})
		}
	}
}
