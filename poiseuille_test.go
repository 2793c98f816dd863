package lbmib

import (
	"fmt"
	"math"
	"testing"

	"lbmib/internal/lattice"
)

// poiseuilleError drives a 2×2×nz channel on cfg's engine (no-slip walls
// in z, so the channel is nz wide wall to wall) with a body force in the
// x–y plane sized for a centreline speed of 0.01 along x, to steady state
// — three viscous diffusion times, leaving the transient thirteen orders
// down — and returns the relative L2 error of the velocity against the
// parabola u(z) = g/2ν (z + ½)(nz − ½ − z) along the force. The force
// has two components so that the Guo terms of the axis and the diagonal
// directions all carry it.
func poiseuilleError(t *testing.T, cfg Config, nz int) float64 {
	t.Helper()
	const tau = 1.0
	nu := lattice.ViscosityFromTau(tau)
	h := float64(nz)
	g := 0.01 * 8 * nu / (h * h)
	cfg.NX, cfg.NY, cfg.NZ, cfg.Tau, cfg.CubeSize = 2, 2, nz, tau, 2
	cfg.BoundaryZ, cfg.BodyForce = NoSlip, [3]float64{g, g / 2, 0}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(int(3 * h * h / nu))
	var num, den float64
	for z := 0; z < nz; z++ {
		zz := float64(z)
		want := g / (2 * nu) * (zz + 0.5) * (h - 0.5 - zz)
		got := s.FluidVelocity(1, 1, z)
		ex, ey := got[0]-want, got[1]-want/2
		num += ex*ex + ey*ey + got[2]*got[2]
		den += 1.25 * want * want
	}
	return math.Sqrt(num / den)
}

// Taylor–Green is force-free, so it cannot see an error in the forcing
// terms of the collision. Body-force Poiseuille flow can: its order of
// convergence is pinned on every engine at one and two threads, with
// TestTaylorGreenConvergenceOrder's floors and for the same reasons —
// second order is what BGK with Guo forcing and halfway bounce-back is
// derived to deliver.
func TestPoiseuilleConvergenceOrder(t *testing.T) {
	orderTable(t, poiseuilleError)
}

// orderTable runs oracle at NZ 8 and 16 on every engine at one and two
// threads and fails a row whose observed order of convergence is below
// 1.8.
func orderTable(t *testing.T, oracle func(*testing.T, Config, int) float64) {
	const floor = 1.8
	widths := []int{8, 16}
	for _, e := range sampledEngines {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dt", e.name, threads), func(t *testing.T) {
				cfg := Config{Solver: e.kind, Threads: threads}
				errs := make([]float64, len(widths))
				for i, nz := range widths {
					errs[i] = oracle(t, cfg, nz)
				}
				for i := 1; i < len(widths); i++ {
					order := math.Log(errs[i-1]/errs[i]) / math.Log(float64(widths[i])/float64(widths[i-1]))
					t.Logf("relative L2 error: NZ=%d %.3e, NZ=%d %.3e, observed order %.2f",
						widths[i-1], errs[i-1], widths[i], errs[i], order)
					if order < floor {
						t.Fatalf("observed order %.2f < %.1f between NZ=%d and NZ=%d (errors %.3e → %.3e)",
							order, floor, widths[i-1], widths[i], errs[i-1], errs[i])
					}
				}
			})
		}
	}
}

// couetteError starts a 2×2×nz box at rest between no-slip walls in z
// (nz wide wall to wall) whose top wall slides at (U, U/2, 0), runs it
// to νt/H² = 0.1 — mid-transient, where the slowest mode has decayed
// to a third and the second to 2 % — and returns the relative L2 error of the velocity
// against the start-up series
// u(ζ, t) = U[ζ − Σₙ 2(−1)ⁿ⁺¹/(nπ) sin(nπζ) e^(−νn²π²t/H²)], ζ = (z+½)/H,
// along the lid. The lid has two components so that the moving-wall
// term of every lid-facing direction carries a velocity.
func couetteError(t *testing.T, cfg Config, nz int) float64 {
	t.Helper()
	const tau, U = 1.0, 0.01
	nu := lattice.ViscosityFromTau(tau)
	h := float64(nz)
	cfg.NX, cfg.NY, cfg.NZ, cfg.Tau, cfg.CubeSize = 2, 2, nz, tau, 2
	cfg.BoundaryZ, cfg.LidVelocity = NoSlip, [3]float64{U, U / 2, 0}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	steps := int(math.Round(0.1 * h * h / nu))
	s.Run(steps)
	decay := nu * math.Pi * math.Pi * float64(steps) / (h * h)
	var num, den float64
	for z := 0; z < nz; z++ {
		zeta := (float64(z) + 0.5) / h
		want := zeta
		for n := 1; n <= 40; n++ {
			fn := float64(n)
			want -= 2 * math.Pow(-1, fn+1) / (fn * math.Pi) * math.Sin(fn*math.Pi*zeta) * math.Exp(-decay*fn*fn)
		}
		want *= U
		got := s.FluidVelocity(1, 1, z)
		ex, ey := got[0]-want, got[1]-want/2
		num += ex*ex + ey*ey
		den += 1.25 * want * want
	}
	return math.Sqrt(num / den)
}

// Poiseuille flow is driven by the body force and never moves a wall, so
// it cannot see an error in the moving-lid term of the boundary body.
// Start-up Couette flow can: its order of convergence is pinned on every
// engine at one and two threads, with the Poiseuille floors.
func TestCouetteConvergenceOrder(t *testing.T) {
	orderTable(t, couetteError)
}
