package lbmib

import (
	"math"
	"testing"
)

// Couette flow: stationary bottom wall, top wall sliding with speed U.
// The steady profile with halfway bounce-back walls is linear,
// u(z) = U (z + ½) / NZ, and every engine must reproduce it.
func TestCouetteLinearProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("relaxation to steady state")
	}
	const (
		nz  = 8
		tau = 0.9
		U   = 0.02
	)
	nu := (tau - 0.5) / 3
	steps := int(12 * float64(nz*nz) / nu)
	cases := []struct {
		kind SolverKind
		// Transverse-flow bounds: the engines keep the symmetry to
		// accumulation rounding.
		tolY, tolZ float64
	}{
		{Sequential, 1e-12, 1e-9},
		{OpenMP, 1e-12, 1e-9},
		{CubeBased, 1e-12, 1e-9},
	}
	for _, tc := range cases {
		sim, err := New(Config{
			NX: 4, NY: 4, NZ: nz,
			Tau:         tau,
			BoundaryZ:   NoSlip,
			LidVelocity: [3]float64{U, 0, 0},
			Solver:      tc.kind,
			Threads:     2,
			CubeSize:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(steps)
		for z := 0; z < nz; z++ {
			got := sim.FluidVelocity(2, 2, z)[0]
			want := U * (float64(z) + 0.5) / float64(nz)
			if math.Abs(got-want) > 0.02*U {
				t.Fatalf("%v: Couette u(z=%d) = %g, want %g", tc.kind, z, got, want)
			}
		}
		// No spurious transverse flow.
		if v := sim.FluidVelocity(2, 2, nz/2); math.Abs(v[1]) > tc.tolY || math.Abs(v[2]) > tc.tolZ {
			t.Fatalf("%v: transverse velocity %v in Couette flow", tc.kind, v)
		}
		sim.Close()
	}
}

// The moving lid does work on the fluid: total momentum along the lid
// direction must become positive, while mass stays conserved.
func TestLidDrivesFlowAndConservesMass(t *testing.T) {
	sim, err := New(Config{
		NX: 8, NY: 8, NZ: 8,
		Tau:         0.8,
		BoundaryZ:   NoSlip,
		LidVelocity: [3]float64{0.05, 0, 0},
		Solver:      Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	m0 := sim.TotalMass()
	sim.Run(50)
	if m1 := sim.TotalMass(); math.Abs(m1-m0) > 1e-9*m0 {
		t.Fatalf("mass drifted with moving lid: %g -> %g", m0, m1)
	}
	near := sim.FluidVelocity(4, 4, 7)[0]
	far := sim.FluidVelocity(4, 4, 0)[0]
	if !(near > far && near > 0) {
		t.Fatalf("lid did not drag fluid: near-wall %g, far %g", near, far)
	}
}

// Lid velocity with periodic z must be ignored (no wall to move).
func TestLidIgnoredWithoutWalls(t *testing.T) {
	sim, err := New(Config{
		NX: 6, NY: 6, NZ: 6, Tau: 0.7,
		LidVelocity: [3]float64{0.05, 0, 0},
		Solver:      Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(10)
	if v := sim.MaxVelocity(); v != 0 {
		t.Fatalf("periodic box acquired velocity %g from a nonexistent lid", v)
	}
}
