package lattice

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestWeightsSumToOne(t *testing.T) {
	sum := 0.0
	for _, w := range W {
		sum += w
	}
	if math.Abs(sum-1) > eps {
		t.Fatalf("weights sum to %.17g, want 1", sum)
	}
}

func TestWeightsPositive(t *testing.T) {
	for i, w := range W {
		if w <= 0 {
			t.Fatalf("weight %d is %g, want > 0", i, w)
		}
	}
}

func TestVelocitySetIsSymmetric(t *testing.T) {
	// Every direction must have its exact opposite in the set.
	for i := 0; i < Q; i++ {
		j := Opposite[i]
		for d := 0; d < 3; d++ {
			if E[i][d] != -E[j][d] {
				t.Fatalf("Opposite[%d]=%d but E[%d]=%v, E[%d]=%v", i, j, i, E[i], j, E[j])
			}
		}
	}
}

func TestOppositeIsInvolution(t *testing.T) {
	for i := 0; i < Q; i++ {
		if Opposite[Opposite[i]] != i {
			t.Fatalf("Opposite is not an involution at %d", i)
		}
	}
}

func TestVelocitiesAreDistinct(t *testing.T) {
	seen := map[[3]int]int{}
	for i, e := range E {
		if j, dup := seen[e]; dup {
			t.Fatalf("directions %d and %d share velocity %v", i, j, e)
		}
		seen[e] = i
	}
}

func TestVelocitySpeeds(t *testing.T) {
	// D3Q19: one rest particle, six speed-1 directions, twelve speed-√2.
	counts := map[int]int{}
	for _, e := range E {
		counts[e[0]*e[0]+e[1]*e[1]+e[2]*e[2]]++
	}
	if counts[0] != 1 || counts[1] != 6 || counts[2] != 12 {
		t.Fatalf("speed histogram %v, want map[0:1 1:6 2:12]", counts)
	}
}

// The lattice must satisfy the isotropy moment conditions up to second
// order: Σ w_i e_i = 0 and Σ w_i e_i e_j = cs² δ_ij.
func TestLatticeIsotropyMoments(t *testing.T) {
	var first [3]float64
	var second [3][3]float64
	for i := 0; i < Q; i++ {
		for a := 0; a < 3; a++ {
			first[a] += W[i] * float64(E[i][a])
			for b := 0; b < 3; b++ {
				second[a][b] += W[i] * float64(E[i][a]) * float64(E[i][b])
			}
		}
	}
	for a := 0; a < 3; a++ {
		if math.Abs(first[a]) > eps {
			t.Fatalf("first moment[%d] = %g, want 0", a, first[a])
		}
		for b := 0; b < 3; b++ {
			want := 0.0
			if a == b {
				want = CS2
			}
			if math.Abs(second[a][b]-want) > eps {
				t.Fatalf("second moment[%d][%d] = %g, want %g", a, b, second[a][b], want)
			}
		}
	}
}

// Third-order isotropy: Σ w_i e_ia e_ib e_ic = 0 (odd moment).
func TestLatticeThirdMomentVanishes(t *testing.T) {
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 3; c++ {
				m := 0.0
				for i := 0; i < Q; i++ {
					m += W[i] * float64(E[i][a]) * float64(E[i][b]) * float64(E[i][c])
				}
				if math.Abs(m) > eps {
					t.Fatalf("third moment[%d][%d][%d] = %g, want 0", a, b, c, m)
				}
			}
		}
	}
}

func TestEquilibriumZerothMoment(t *testing.T) {
	var geq [Q]float64
	Equilibrium(1.2, [3]float64{0.05, -0.02, 0.01}, &geq)
	sum := 0.0
	for _, g := range geq {
		sum += g
	}
	if !almostEqual(sum, 1.2, eps) {
		t.Fatalf("Σ g^eq = %.17g, want 1.2", sum)
	}
}

func TestEquilibriumFirstMoment(t *testing.T) {
	rho := 0.9
	u := [3]float64{0.03, 0.07, -0.04}
	var geq [Q]float64
	Equilibrium(rho, u, &geq)
	var m [3]float64
	for i := 0; i < Q; i++ {
		for d := 0; d < 3; d++ {
			m[d] += geq[i] * float64(E[i][d])
		}
	}
	for d := 0; d < 3; d++ {
		if !almostEqual(m[d], rho*u[d], eps) {
			t.Fatalf("Σ e_%d g^eq = %.17g, want %.17g", d, m[d], rho*u[d])
		}
	}
}

func TestEquilibriumAtRestIsWeights(t *testing.T) {
	var geq [Q]float64
	Equilibrium(1, [3]float64{}, &geq)
	for i := 0; i < Q; i++ {
		if !almostEqual(geq[i], W[i], eps) {
			t.Fatalf("g^eq[%d] = %g at rest, want w[%d] = %g", i, geq[i], i, W[i])
		}
	}
}

// Property: for any admissible (rho, u) the equilibrium reproduces its own
// zeroth and first moments. This is the fundamental consistency requirement
// of the BGK collision.
func TestEquilibriumMomentsProperty(t *testing.T) {
	f := func(rhoRaw, ux, uy, uz float64) bool {
		rho := 0.5 + math.Mod(math.Abs(rhoRaw), 1.0) // in [0.5, 1.5)
		u := [3]float64{clampVel(ux), clampVel(uy), clampVel(uz)}
		var geq [Q]float64
		Equilibrium(rho, u, &geq)
		sum := 0.0
		var m [3]float64
		for i := 0; i < Q; i++ {
			sum += geq[i]
			for d := 0; d < 3; d++ {
				m[d] += geq[i] * float64(E[i][d])
			}
		}
		if !almostEqual(sum, rho, 1e-10) {
			return false
		}
		for d := 0; d < 3; d++ {
			if !almostEqual(m[d], rho*u[d], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func clampVel(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return 0.1 * math.Tanh(v)
}

// Guo forcing must add zero net mass and exactly (1 − 1/2τ) f momentum.
func TestGuoForceMoments(t *testing.T) {
	tau := 0.8
	u := [3]float64{0.02, -0.05, 0.01}
	fv := [3]float64{1e-4, -2e-4, 3e-4}
	var F [Q]float64
	GuoForce(tau, u, fv, &F)
	sum := 0.0
	var m [3]float64
	for i := 0; i < Q; i++ {
		sum += F[i]
		for d := 0; d < 3; d++ {
			m[d] += F[i] * float64(E[i][d])
		}
	}
	if math.Abs(sum) > eps {
		t.Fatalf("Σ F_i = %g, want 0 (no mass source)", sum)
	}
	pre := 1 - 1/(2*tau)
	for d := 0; d < 3; d++ {
		if !almostEqual(m[d], pre*fv[d], 1e-10) {
			t.Fatalf("Σ e F_i [%d] = %g, want %g", d, m[d], pre*fv[d])
		}
	}
}

func TestGuoForceZeroForceIsZero(t *testing.T) {
	var F [Q]float64
	GuoForce(0.9, [3]float64{0.1, 0.2, 0.3}, [3]float64{}, &F)
	for i, v := range F {
		if v != 0 {
			t.Fatalf("F[%d] = %g with zero body force, want 0", i, v)
		}
	}
}

// Property: Guo forcing is linear in f.
func TestGuoForceLinearityProperty(t *testing.T) {
	prop := func(fx, fy, fz, s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		s = math.Mod(s, 8)
		fv := [3]float64{clampVel(fx), clampVel(fy), clampVel(fz)}
		u := [3]float64{0.01, 0.02, -0.03}
		var f1, f2 [Q]float64
		GuoForce(0.7, u, fv, &f1)
		GuoForce(0.7, u, [3]float64{s * fv[0], s * fv[1], s * fv[2]}, &f2)
		for i := 0; i < Q; i++ {
			if !almostEqual(f2[i], s*f1[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMomentsRoundTripEquilibrium(t *testing.T) {
	rho := 1.1
	u := [3]float64{0.04, -0.03, 0.02}
	var geq [Q]float64
	Equilibrium(rho, u, &geq)
	var got [3]float64
	gotRho := Moments(&geq, [3]float64{}, &got)
	if !almostEqual(gotRho, rho, eps) {
		t.Fatalf("rho = %g, want %g", gotRho, rho)
	}
	for d := 0; d < 3; d++ {
		if !almostEqual(got[d], u[d], 1e-10) {
			t.Fatalf("u[%d] = %g, want %g", d, got[d], u[d])
		}
	}
}

func TestMomentsHalfForceCorrection(t *testing.T) {
	rho := 1.0
	u := [3]float64{}
	var geq [Q]float64
	Equilibrium(rho, u, &geq)
	fv := [3]float64{0.02, 0, -0.01}
	var got [3]float64
	Moments(&geq, fv, &got)
	for d := 0; d < 3; d++ {
		want := 0.5 * fv[d] / rho
		if !almostEqual(got[d], want, eps) {
			t.Fatalf("u[%d] = %g, want half-force %g", d, got[d], want)
		}
	}
}

func TestMomentsZeroDensity(t *testing.T) {
	var g [Q]float64
	var u [3]float64
	if rho := Moments(&g, [3]float64{1, 1, 1}, &u); rho != 0 {
		t.Fatalf("rho = %g, want 0", rho)
	}
	if u != ([3]float64{}) {
		t.Fatalf("u = %v for zero density, want zero vector", u)
	}
}

func TestTauViscosityRoundTrip(t *testing.T) {
	for _, nu := range []float64{0.01, 1.0 / 6.0, 0.2, 1.5} {
		tau := TauFromViscosity(nu)
		if got := ViscosityFromTau(tau); !almostEqual(got, nu, eps) {
			t.Fatalf("viscosity round trip: %g -> %g", nu, got)
		}
	}
}

func TestTauFromViscosityKnownValue(t *testing.T) {
	// ν = 1/6 gives τ = 1 exactly.
	if tau := TauFromViscosity(1.0 / 6.0); math.Abs(tau-1) > eps {
		t.Fatalf("TauFromViscosity(1/6) = %g, want 1", tau)
	}
}

func BenchmarkEquilibrium(b *testing.B) {
	var geq [Q]float64
	u := [3]float64{0.05, -0.02, 0.01}
	for i := 0; i < b.N; i++ {
		Equilibrium(1.0, u, &geq)
	}
	_ = geq
}

func BenchmarkGuoForce(b *testing.B) {
	var F [Q]float64
	u := [3]float64{0.05, -0.02, 0.01}
	fv := [3]float64{1e-4, 2e-4, -1e-4}
	for i := 0; i < b.N; i++ {
		GuoForce(0.8, u, fv, &F)
	}
	_ = F
}

func BenchmarkCollide(b *testing.B) {
	var g [Q]float64
	u := [3]float64{0.05, -0.02, 0.01}
	fv := [3]float64{1e-4, 2e-4, -1e-4}
	Equilibrium(1.0, u, &g)
	for i := 0; i < b.N; i++ {
		Collide(&g, 1.0, u, fv, 0.8)
	}
	_ = g
}

// Opposite directions carry equal weights — required for bounce-back to
// conserve mass.
func TestOppositeWeightsEqual(t *testing.T) {
	for i := 0; i < Q; i++ {
		if W[i] != W[Opposite[i]] {
			t.Fatalf("w[%d]=%g != w[opp]=%g", i, W[i], W[Opposite[i]])
		}
	}
}
