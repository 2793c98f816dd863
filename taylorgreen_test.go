package lbmib

import (
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fused"
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
				nd.DF = geq
				nd.DFNew = geq
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

// The same closed-form oracle for the fused engine, in both storage
// modes: the float64 sweep must hit the sequential tolerances (it is
// bitwise equal to OpenMP), and the float32 mode must still resolve the
// analytic decay — its ~1e-7 rounding floor sits two orders below the
// 2%-of-U pointwise budget at U = 1e-3, so the physics check has real
// teeth against precision loss too.
func TestTaylorGreenVortexDecayFused(t *testing.T) {
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

	for _, f32 := range []bool{false, true} {
		s := fused.MustNewSolver(fused.Config{
			Config:  core.Config{NX: n, NY: n, NZ: 4, Tau: tau},
			Threads: 4, Float32: f32,
		})
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				ux := U * math.Sin(k*float64(x)) * math.Cos(k*float64(y))
				uy := -U * math.Cos(k*float64(x)) * math.Sin(k*float64(y))
				for z := 0; z < 4; z++ {
					nd := s.Fluid.At(x, y, z)
					u := [3]float64{ux, uy, 0}
					var geq [lattice.Q]float64
					lattice.Equilibrium(1, u, &geq)
					nd.DF = geq
					nd.DFNew = geq
					nd.Vel = u
					nd.Rho = 1
				}
			}
		}
		s.Loaded() // sync engine invariants after direct grid init

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
		if worst > 0.02*U {
			t.Fatalf("float32=%v: Taylor–Green worst pointwise error %.3e exceeds %.3e", f32, worst, 0.02*U)
		}

		energy, initial := 0.0, 0.0
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				v := s.Fluid.At(x, y, 0).Vel
				energy += v[0]*v[0] + v[1]*v[1]
				ux := U * math.Sin(k*float64(x)) * math.Cos(k*float64(y))
				uy := -U * math.Cos(k*float64(x)) * math.Sin(k*float64(y))
				initial += ux*ux + uy*uy
			}
		}
		gotRatio := energy / initial
		wantRatio := decay * decay
		if math.Abs(gotRatio-wantRatio) > 0.03*wantRatio {
			t.Fatalf("float32=%v: energy decay ratio %.5f, analytic %.5f", f32, gotRatio, wantRatio)
		}
		s.Close()
	}
}
