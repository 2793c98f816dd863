package lattice

import (
	"math"
	"math/rand"
	"testing"

	"lbmib/internal/cpu"
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

const kernelStates = 120000

// Collide equals the textbook composition of the two oracle functions,
// g − (g − g^eq)/τ + F, to 4·10⁻¹⁵·w_i in every direction.
func TestCollideMatchesFormula(t *testing.T) {
	t.Run("float64", collideMatchesFormula)
}

func collideMatchesFormula(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	worst := 0.0
	for n := 0; n < kernelStates; n++ {
		s := randomState(r)
		got := s.collided()
		var geq, F [Q]float64
		Equilibrium(s.rho, s.u, &geq)
		GuoForce(s.tau, s.u, s.f, &F)
		for i := 0; i < Q; i++ {
			want := s.g[i] - (s.g[i]-geq[i])/s.tau + F[i]
			d := math.Abs(got[i]-want) / W[i]
			if bound := 4e-15; d > bound {
				t.Fatalf("state %d direction %d: kernel %.17g, formula %.17g (|Δ|/w = %.3g > %.3g)\n%+v", n, i, got[i], want, d, bound, s)
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
// times its size, is not the scale of either form's rounding.
func TestMomentsMatchesLoopForm(t *testing.T) {
	t.Run("float64", momentsMatchLoopForm)
}

func momentsMatchLoopForm(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ulp1 := math.Nextafter(1, 2) - 1
	worst := 0.0
	for n := 0; n < kernelStates; n++ {
		s := randomState(r)
		var gotU, wantU [3]float64
		got := [4]float64{0: Moments(&s.g, s.f, &gotU)}
		want := [4]float64{0: momentsLoop(&s.g, s.f, &wantU)}
		copy(got[1:], gotU[:])
		copy(want[1:], wantU[:])
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

// The vector bodies (kernel_amd64.s) are held to the Go kernel bit for
// bit: every lane runs the Go expression tree operation for operation,
// so no input, however degenerate, may tell the two apart. The one
// exception is which NaN a NaN result is. Where two different NaNs meet
// (an input NaN and the NaN an invalid operation such as ∞ − ∞ makes),
// x86 returns the first operand's, and the Go compiler orders the
// operands of a commutative product or sum as register allocation
// suits it, differently from pair to pair and from one compiler release
// to the next; so a NaN is matched by a NaN, and every other value by
// its bits. The Go kernel is itself held to the formulas by the tests
// above.

// vectorStates is the number of random nodes each vector body is
// compared on.
const vectorStates = 1_000_000

func requireVector(t *testing.T) {
	if !cpu.Vector() {
		t.Skip("no vector body on this host")
	}
}

// sameBits reports whether a and b have the same bits or are both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// firstDiff returns the first direction at which a and b differ by
// sameBits, or -1.
func firstDiff(a, b *[Q]float64) int {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// checkVector runs both bodies of Collide and of FoldCollide on s and
// fails at the first bit that differs. The fold uses s.f as the fold
// force and fold as the collision's.
func checkVector(t *testing.T, n int, s nodeState, fold [3]float64) {
	t.Helper()
	want, got := s.g, s.g
	collide(&want, s.rho, s.u, s.f, s.tau)
	collideAVX2(&got, s.rho, s.u[0], s.u[1], s.u[2], s.f[0], s.f[1], s.f[2], s.tau)
	if i := firstDiff(&got, &want); i >= 0 {
		t.Fatalf("Collide, node %d, direction %d: vector %#016x (%g), Go %#016x (%g)\n%+v",
			n, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i], s)
	}
	want, got = s.g, s.g
	wantRho := foldCollide(&want, s.f, fold, s.tau)
	gotRho := foldCollideAVX2(&got, s.f[0], s.f[1], s.f[2], fold[0], fold[1], fold[2], s.tau)
	if !sameBits(gotRho, wantRho) {
		t.Fatalf("FoldCollide, node %d: density %#016x (%g), Go %#016x (%g)\n%+v",
			n, math.Float64bits(gotRho), gotRho, math.Float64bits(wantRho), wantRho, s)
	}
	if i := firstDiff(&got, &want); i >= 0 {
		t.Fatalf("FoldCollide, node %d, direction %d: vector %#016x (%g), Go %#016x (%g)\n%+v",
			n, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i], s)
	}
}

// On the kernel's operating range — randomState's nodes — both vector
// bodies give the Go kernel's bits.
func TestVectorKernelMatchesGoBitwise(t *testing.T) {
	requireVector(t)
	r := rand.New(rand.NewSource(24))
	for n := 0; n < vectorStates; n++ {
		s := randomState(r)
		fold := [3]float64{1e-2 * (2*r.Float64() - 1), 0, 1e-3 * r.NormFloat64()}
		checkVector(t, n, s, fold)
	}
}

// special holds the values whose arithmetic differs from that of an
// ordinary number: signed zeros, subnormals, the largest and smallest
// normals, infinities and NaN.
var special = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-320,
	0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), 1, -1, 0.5,
}

// specialState draws every population, density, velocity and force
// component from special with probability p, and from randomState's
// node otherwise; tau comes from a set that reaches towards 1/2 and far
// above 1.
func specialState(r *rand.Rand, p float64) nodeState {
	s := randomState(r)
	pick := func(v *float64) {
		if r.Float64() < p {
			*v = special[r.Intn(len(special))]
		}
	}
	for i := range s.g {
		pick(&s.g[i])
	}
	pick(&s.rho)
	for d := 0; d < 3; d++ {
		pick(&s.u[d])
		pick(&s.f[d])
	}
	taus := [...]float64{0.5 + 0x1p-52, 0.5 + 1e-9, 0.500001, 0.51, 1, 64, 1e6, 1e300}
	s.tau = taus[r.Intn(len(taus))]
	return s
}

// Off the operating range the bodies still agree bit for bit: special
// values in the populations, the density, the velocity and the forces,
// relaxation times close to 1/2 and very large ones, exactly zero forces,
// and populations that sum to a zero density of either sign, which takes
// Moments' zero-density branch in the fold.
func TestVectorKernelMatchesGoOnSpecialValues(t *testing.T) {
	requireVector(t)
	r := rand.New(rand.NewSource(25))
	n := 0
	for _, p := range []float64{0.02, 0.1, 0.5, 1} {
		for k := 0; k < vectorStates/4; k++ {
			s := specialState(r, p)
			fold := [3]float64{}
			if k%3 != 0 {
				fold = s.u // any three values will do as a force
			}
			if k%4 == 0 {
				s.f = [3]float64{}
			}
			checkVector(t, n, s, fold)
			n++
		}
	}
	// Zero density: every population zero, or each pair's members of
	// opposite sign and equal size, so the sums cancel exactly.
	for k := 0; k < 1000; k++ {
		s := randomState(r)
		s.tau = 0.5 + 0x1p-52
		if k%2 == 0 {
			s.g = [Q]float64{}
			if k%4 == 0 {
				for i := range s.g {
					s.g[i] = math.Copysign(0, -1)
				}
			}
		} else {
			s.g[0] = 0
			for i := 1; i < Q; i += 2 {
				s.g[i+1] = -s.g[i]
			}
		}
		var u [3]float64
		if rho := Moments(&s.g, s.f, &u); rho != 0 {
			t.Fatalf("zero-density node %d has density %g", k, rho)
		}
		checkVector(t, n, s, s.f)
		n++
	}
}

// BenchmarkCollide times the node kernel on a ring of nodes larger than
// L1 (1024 nodes, 152 KiB of populations), one node per iteration, so
// consecutive calls are independent, as they are in a pass over a block:
// the vector body and the Go kernel of Collide, and of FoldCollide.
//
//	go test -run '^$' -bench Collide ./internal/lattice
func BenchmarkCollide(b *testing.B) {
	const ring = 1024 // a power of two
	r := rand.New(rand.NewSource(26))
	states := make([]nodeState, ring)
	for i := range states {
		states[i] = randomState(r)
	}
	for _, c := range []struct {
		name   string
		vector bool
		node   func(s *nodeState)
	}{
		{"vector", true, func(s *nodeState) { collideAVX2(&s.g, s.rho, s.u[0], s.u[1], s.u[2], s.f[0], s.f[1], s.f[2], s.tau) }},
		{"portable", false, func(s *nodeState) { collide(&s.g, s.rho, s.u, s.f, s.tau) }},
		{"fold/vector", true, func(s *nodeState) {
			s.rho = foldCollideAVX2(&s.g, s.f[0], s.f[1], s.f[2], s.f[0], s.f[1], s.f[2], s.tau)
		}},
		{"fold/portable", false, func(s *nodeState) { s.rho = foldCollide(&s.g, s.f, s.f, s.tau) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.vector && !cpu.Vector() {
				b.Skip("no vector body on this host")
			}
			ring := append([]nodeState(nil), states...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.node(&ring[i%len(ring)])
			}
		})
	}
}
