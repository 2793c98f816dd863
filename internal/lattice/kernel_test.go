package lattice

import (
	"math"
	"math/rand"
	"testing"
)

// The tests in this file hold the unrolled node kernel (kernel.go) to the
// formulas written down direction by direction — Equilibrium, GuoForce and
// the loop form of the moments below — and to exact invariants that a
// typo in any one of its eighteen unrolled directions breaks.

// nodeState is one input of the node kernel. The populations are an
// equilibrium perturbed direction by direction, so they carry a
// non-equilibrium part and their own moments differ from rho and u.
type nodeState struct {
	g    [Q]float64
	rho  float64
	u, f [3]float64
	tau  float64
}

var kernelTaus = [...]float64{0.51, 0.7, 1, 2}

// randomState draws rho from [0.5, 1.5], u uniformly in direction with
// |u| ≤ 0.3, a force that is exactly zero for a quarter of the states and
// has one exactly-zero component for another quarter, tau from
// kernelTaus, and populations up to 10 % off the equilibrium.
func randomState(r *rand.Rand) nodeState {
	var s nodeState
	s.rho = 0.5 + r.Float64()
	s.tau = kernelTaus[r.Intn(len(kernelTaus))]
	mag := 0.3 * r.Float64()
	var norm float64
	for d := range s.u {
		s.u[d] = r.NormFloat64()
		norm += s.u[d] * s.u[d]
	}
	for d := range s.u {
		s.u[d] *= mag / math.Sqrt(norm)
	}
	if kind := r.Intn(4); kind != 0 {
		for d := range s.f {
			s.f[d] = 1e-2 * (2*r.Float64() - 1)
		}
		if kind == 1 {
			s.f[r.Intn(3)] = 0
		}
	}
	Equilibrium(s.rho, s.u, &s.g)
	for i := range s.g {
		s.g[i] *= 1 + 0.1*(2*r.Float64()-1)
	}
	return s
}

func (s nodeState) collided() [Q]float64 {
	g := s.g
	Collide(&g, s.rho, s.u, s.f, s.tau)
	return g
}

// stored returns s with its populations rounded to the storage type T —
// the input the kernel's T instantiation sees — and those populations as
// stored.
func stored[T Float](s nodeState) (nodeState, [Q]T) {
	var g [Q]T
	for i, v := range s.g {
		g[i] = T(v)
		s.g[i] = float64(g[i])
	}
	return s, g
}

const kernelStates = 120000

// Collide equals the textbook composition of the two oracle functions,
// g − (g − g^eq)/τ + F, to 4·10⁻¹⁵·w_i in every direction. On float32
// storage it is the float64 kernel on the widened populations rounded
// once, bit for bit, and so equals the formula to that bound plus one
// float32 rounding (2⁻²⁴ relative).
func TestCollideMatchesFormula(t *testing.T) {
	t.Run("float64", func(t *testing.T) { collideMatchesFormula[float64](t, 0) })
	t.Run("float32", func(t *testing.T) { collideMatchesFormula[float32](t, 0x1p-24) })
}

func collideMatchesFormula[T Float](t *testing.T, rounding float64) {
	r := rand.New(rand.NewSource(20))
	worst := 0.0
	for n := 0; n < kernelStates; n++ {
		s, got := stored[T](randomState(r))
		Collide(&got, s.rho, s.u, s.f, s.tau)
		wide := s.collided()
		var geq, F [Q]float64
		Equilibrium(s.rho, s.u, &geq)
		GuoForce(s.tau, s.u, s.f, &F)
		for i := 0; i < Q; i++ {
			if got[i] != T(wide[i]) {
				t.Fatalf("state %d direction %d: kernel %v, the float64 kernel rounded once %v", n, i, got[i], T(wide[i]))
			}
			want := s.g[i] - (s.g[i]-geq[i])/s.tau + F[i]
			d := math.Abs(float64(got[i])-want) / W[i]
			if bound := 4e-15 + rounding*math.Abs(want)/W[i]; d > bound {
				t.Fatalf("state %d direction %d: kernel %.17g, formula %.17g (|Δ|/w = %.3g > %.3g)\n%+v", n, i, float64(got[i]), want, d, bound, s)
			}
			worst = math.Max(worst, d)
		}
	}
	t.Logf("max |kernel − formula| / w_i over %d states: %.3g", kernelStates, worst)
}

// momentsLoop is the moments written as the sum over E it is defined by:
// the form lattice.Moments had before it was unrolled, kept as its oracle.
func momentsLoop(g *[Q]float64, f [3]float64, u *[3]float64) (rho float64) {
	var mx, my, mz float64
	for i := 0; i < Q; i++ {
		gi := g[i]
		rho += gi
		mx += gi * float64(E[i][0])
		my += gi * float64(E[i][1])
		mz += gi * float64(E[i][2])
	}
	if rho == 0 {
		*u = [3]float64{}
		return 0
	}
	u[0] = (mx + 0.5*f[0]) / rho
	u[1] = (my + 0.5*f[1]) / rho
	u[2] = (mz + 0.5*f[2]) / rho
	return rho
}

// Moments equals the loop form to 4 ulp of 1 (4·2⁻⁵²) in the density and in
// every velocity component. The unit is that of the O(1) sums both forms
// accumulate, not of the result: the loop form rounds eighteen times at
// the size of its running sum whatever the sum comes to, so a density just
// under 1, or a velocity that is the small difference of populations ten
// times its size, is not the scale of either form's rounding. On float32
// storage Moments is Moments on the widened populations, bit for bit.
func TestMomentsMatchesLoopForm(t *testing.T) {
	t.Run("float64", momentsMatchLoopForm[float64])
	t.Run("float32", momentsMatchLoopForm[float32])
}

func momentsMatchLoopForm[T Float](t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ulp1 := math.Nextafter(1, 2) - 1
	worst := 0.0
	for n := 0; n < kernelStates; n++ {
		s, g := stored[T](randomState(r))
		var gotU, wideU, wantU [3]float64
		got := [4]float64{0: Moments(&g, s.f, &gotU)}
		wide := [4]float64{0: Moments(&s.g, s.f, &wideU)}
		want := [4]float64{0: momentsLoop(&s.g, s.f, &wantU)}
		copy(got[1:], gotU[:])
		copy(wide[1:], wideU[:])
		copy(want[1:], wantU[:])
		if got != wide {
			t.Fatalf("state %d: moments %v, on the widened populations %v", n, got, wide)
		}
		for k, name := range [4]string{"rho", "u[0]", "u[1]", "u[2]"} {
			d := math.Abs(got[k]-want[k]) / ulp1
			if d > 4 {
				t.Fatalf("state %d: %s %.17g, loop form %.17g (%.1f ulp of 1)", n, name, got[k], want[k], d)
			}
			worst = math.Max(worst, d)
		}
	}
	t.Logf("max difference over %d states: %.2f ulp of 1", kernelStates, worst)
}

// sum adds xs with Neumaier's compensation, so that the invariants below
// measure the kernel's rounding and not the test's.
func sum(xs ...float64) float64 {
	var s, c float64
	for _, x := range xs {
		t := s + x
		if math.Abs(s) >= math.Abs(x) {
			c += (s - t) + x
		} else {
			c += (x - t) + s
		}
		s = t
	}
	return s + c
}

// momentsOf returns Σ g_i and Σ e_i g_i.
func momentsOf(g *[Q]float64) (m0 float64, m1 [3]float64) {
	m0 = sum(g[:]...)
	for d := 0; d < 3; d++ {
		var terms [Q]float64
		for i := 0; i < Q; i++ {
			terms[i] = float64(E[i][d]) * g[i]
		}
		m1[d] = sum(terms[:]...)
	}
	return
}

// The collision's zeroth and first moments are exact statements about all
// nineteen directions at once: it relaxes the populations' mass towards
// rho and their momentum towards rho·u at rate 1/τ and adds (1 − 1/2τ)·f
// of momentum,
//
//	Σ Δg_i     = −(Σ g_i − ρ)/τ
//	Σ e_i Δg_i = (1 − 1/2τ) f − (Σ e_i g_i − ρ u)/τ.
//
// A wrong sign, weight or component in one direction moves these by the
// size of that direction's term, ten orders of magnitude above 1e-15.
func TestCollideMomentInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var worst0, worst1 float64
	for n := 0; n < kernelStates; n++ {
		s := randomState(r)
		if n%2 == 1 {
			// With rho the populations' own sum — what kernel 7 hands
			// kernel 5 — the collision conserves mass.
			s.rho, _ = momentsOf(&s.g)
		}
		after := s.collided()
		var delta [Q]float64
		for i := range delta {
			delta[i] = after[i] - s.g[i]
		}
		m0, m1 := momentsOf(&s.g)
		d0, d1 := momentsOf(&delta)
		e0 := math.Abs(d0 + (m0-s.rho)/s.tau)
		if e0 > 1e-15 {
			t.Fatalf("state %d: Σ Δg = %.17g, want %.17g (|Δ| = %.3g)\n%+v", n, d0, -(m0-s.rho)/s.tau, e0, s)
		}
		worst0 = math.Max(worst0, e0)
		for d := 0; d < 3; d++ {
			want := (1-1/(2*s.tau))*s.f[d] - (m1[d]-s.rho*s.u[d])/s.tau
			e1 := math.Abs(d1[d] - want)
			if e1 > 1e-15 {
				t.Fatalf("state %d: Σ e_%d Δg = %.17g, want %.17g (|Δ| = %.3g)\n%+v", n, d, d1[d], want, e1, s)
			}
			worst1 = math.Max(worst1, e1)
		}
	}
	t.Logf("max residual over %d states: mass %.3g, momentum %.3g", kernelStates, worst0, worst1)
}

// The rest state with no force is a fixed point of the collision bit for
// bit, at every relaxation time: g^eq − g is exactly zero there.
func TestCollideRestStateIsBitwiseFixedPoint(t *testing.T) {
	for _, tau := range kernelTaus {
		for _, rho := range []float64{1, 0.5, 1.3} {
			var g [Q]float64
			Equilibrium(rho, [3]float64{}, &g)
			want := g
			for step := 0; step < 3; step++ {
				Collide(&g, rho, [3]float64{}, [3]float64{}, tau)
			}
			if g != want {
				t.Fatalf("tau %g rho %g: rest state moved\n got %v\nwant %v", tau, rho, g, want)
			}
		}
	}
}

// symmetry is one of the 48 symmetries of the cubic lattice: component d
// of the image of a vector v is sign[d]·v[perm[d]].
type symmetry struct {
	perm [3]int
	sign [3]float64
}

func (m symmetry) vec(v [3]float64) (out [3]float64) {
	for d := range out {
		out[d] = m.sign[d] * v[m.perm[d]]
	}
	return
}

// populations carries g along: the image holds g_i at the direction that
// E[i] maps to.
func (m symmetry) populations(t *testing.T, g [Q]float64) (out [Q]float64) {
	for i := 0; i < Q; i++ {
		var e [3]int
		for d := range e {
			e[d] = int(m.sign[d]) * E[i][m.perm[d]]
		}
		j := 0
		for j < Q && E[j] != e {
			j++
		}
		if j == Q {
			t.Fatalf("image %v of direction %d is not in the velocity set", e, i)
		}
		out[j] = g[i]
	}
	return
}

// Colliding the image of a state gives the image of the collided state,
// for all 48 lattice symmetries. Under the 8 mirror combinations (and
// those composed with the x↔y swap) the agreement is bitwise: negation is
// exact, addition commutes, and a pair whose two directions trade places
// sees its antisymmetric part change sign and nothing else. Under the
// other axis permutations u² and u·f — summed in the fixed order x, y, z
// — may round differently by one ulp, which reaches each population
// scaled by at most its weight; those agree to 2·10⁻¹⁵·w_i.
func TestCollideCommutesWithLatticeSymmetries(t *testing.T) {
	perms := [][3]int{{0, 1, 2}, {1, 0, 2}, {0, 2, 1}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	r := rand.New(rand.NewSource(23))
	states := make([]nodeState, 2000)
	for i := range states {
		states[i] = randomState(r)
	}
	count, worst := 0, 0.0
	for pi, perm := range perms {
		bitwise := pi < 2
		for signs := 0; signs < 8; signs++ {
			m := symmetry{perm: perm}
			for d := range m.sign {
				m.sign[d] = 1 - 2*float64(signs>>d&1)
			}
			count++
			for n, s := range states {
				want := m.populations(t, s.collided())
				img := nodeState{g: m.populations(t, s.g), rho: s.rho, u: m.vec(s.u), f: m.vec(s.f), tau: s.tau}
				got := img.collided()
				if bitwise {
					if got != want {
						t.Fatalf("symmetry %+v, state %d: not bitwise equal\n got %v\nwant %v", m, n, got, want)
					}
					continue
				}
				for i := 0; i < Q; i++ {
					d := math.Abs(got[i]-want[i]) / W[i]
					if d > 2e-15 {
						t.Fatalf("symmetry %+v, state %d, direction %d: %.17g vs %.17g (|Δ|/w = %.3g)", m, n, i, got[i], want[i], d)
					}
					worst = math.Max(worst, d)
				}
			}
		}
	}
	if count != 48 {
		t.Fatalf("%d symmetries enumerated, want 48", count)
	}
	t.Logf("16 symmetries bitwise; the other 32 within %.3g·w_i", worst)
}
