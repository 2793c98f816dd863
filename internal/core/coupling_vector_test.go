package core

import (
	"math"
	"math/rand"
	"testing"

	"lbmib/internal/cpu"
	"lbmib/internal/grid"
	"lbmib/internal/ibm"
)

// The vector bodies of the coupling — ibm's stencil and grid's spread
// and gather, selected by cpu.Vector — are held to the Go bodies bit for
// bit through the entries the engines call, on every couplingLayouts
// layout: each test runs a layout with the vector bodies and its twin
// with the Go bodies (cpu.PortableForTest) and compares every force
// component after every chunk. The other coupling tests hold whichever
// body is selected to the per-point oracle.
//
// Where two NaNs meet in a sum or product, x86 returns the first
// operand's, and the Go compiler orders a commutative operation's
// operands as register allocation suits it; so a NaN matches any NaN,
// and every other value its bits (as the node kernel's vector tests
// compare).

func requireVectorCoupling(t *testing.T) {
	if !cpu.Vector() {
		t.Skip("no vector body on this host")
	}
}

// portable runs f with the Go bodies.
func portable(f func()) {
	defer cpu.PortableForTest()()
	f()
}

func sameOrNaN(a, b [3]float64) bool {
	for d := range a {
		if math.Float64bits(a[d]) != math.Float64bits(b[d]) && !(a[d] != a[d] && b[d] != b[d]) {
			return false
		}
	}
	return true
}

func compareVectorForces(t *testing.T, what string, got, want []grid.Macro) {
	t.Helper()
	for i := range got {
		if !sameOrNaN(got[i].Force, want[i].Force) {
			t.Fatalf("%s: node %d force = %v with the vector bodies, %v with the Go bodies", what, i, got[i].Force, want[i].Force)
		}
	}
}

// Kernels 4 and 8 through the vector bodies equal them through the Go
// bodies, on couplingPositions (seams, block faces, lattice-aligned
// windows with exactly zero outer weights, far images, non-finite
// coordinates): SpreadBox into the whole domain and box by box over a
// random partition (so windows are cut by out-of-box masks), with the
// support marks it sets, on fields with −0 force components and forces
// with zero and −0 components; and Interpolate at every position.
func TestVectorCouplingMatchesGo(t *testing.T) {
	requireVectorCoupling(t)
	const stencils, chunk = 12000, 48
	for _, tc := range couplingLayouts {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(43))
			l, ref := tc.make(), tc.make()
			c, cref := l.Coupling, ref.Coupling
			dims := dimsOf(l)
			_, e := l.BlockBox(0)
			nb := len(l.Macros()) / (e[0] * e[1] * e[2])
			xs := couplingPositions(r, stencils, dims, tc.k)
			for lo := 0; lo < len(xs); lo += chunk {
				if lo%(2*chunk) == 0 {
					randomize(r, l.Macros(), ref.Macros())
				}
				fs := make([][3]float64, chunk)
				for i := range fs {
					fs[i] = randomForce(r)
					if r.Intn(5) == 0 {
						fs[i][r.Intn(3)] = math.Copysign(0, -1)
					}
				}
				sheets := sheetsAt(xs[lo:lo+chunk], fs)
				boxes := []grid.Box{c.Whole()}
				if lo%(2*chunk) != 0 {
					boxes = randomBoxes(r, dims)
				}
				for _, b := range boxes {
					got, want := make([]bool, nb), make([]bool, nb)
					SpreadBox(c, sheets, b, got)
					portable(func() { SpreadBox(cref, sheets, b, want) })
					for blk := range got {
						if got[blk] != want[blk] {
							t.Fatalf("box %+v, fiber nodes %d..%d: block %d marked %v with the vector bodies, %v with the Go bodies", b, lo, lo+chunk, blk, got[blk], want[blk])
						}
					}
				}
				compareVectorForces(t, "SpreadBox", l.Macros(), ref.Macros())
				for _, x := range xs[lo : lo+chunk] {
					got := c.Interpolate(x)
					var want [3]float64
					portable(func() { want = cref.Interpolate(x) })
					if !sameOrNaN(got, want) {
						t.Fatalf("Interpolate(%v) = %v with the vector bodies, %v with the Go bodies", x, got, want)
					}
				}
			}
		})
	}
}

// couplingSpecials are the stencil weights, force components and area
// elements the special-value test draws: zeros of both signs (so every
// skip, plane, row and point, is taken and its absence shows), the
// smallest subnormal (whose products underflow to zero), ±∞ and NaN
// (whose products with a skipped zero would be NaN), and ordinary and
// extreme magnitudes.
var couplingSpecials = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, 0.5, 0.25, -1, 1e300, math.MaxFloat64}

func specialOr(r *rand.Rand, p int, v float64) float64 {
	if r.Intn(p) == 0 {
		return couplingSpecials[r.Intn(len(couplingSpecials))]
	}
	return v
}

// The spread and gather loops through the vector bodies equal them
// through the Go bodies on stencils no position gives: any bases (seams
// and far images included), and weights, forces, area elements and
// velocities drawn in part from couplingSpecials. A whole axis of zero
// weights is drawn as well. Each layout takes 20 000 stencils, its
// fields refreshed every 16, after which they are compared.
func TestVectorCouplingMatchesGoOnSpecialValues(t *testing.T) {
	requireVectorCoupling(t)
	const stencils, chunk = 20000, 16
	for _, tc := range couplingLayouts {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(44))
			l, ref := tc.make(), tc.make()
			dims := dimsOf(l)
			for n := 0; n < stencils; n++ {
				if n%chunk == 0 {
					randomize(r, l.Macros(), ref.Macros())
					m, mref := l.Macros(), ref.Macros()
					for i := range m {
						for d := 0; d < 3; d++ {
							m[i].Vel[d] = specialOr(r, 40, m[i].Vel[d])
						}
						mref[i].Vel = m[i].Vel
					}
				}
				var st ibm.Stencil
				for a, w := range [3]*[ibm.SupportWidth]float64{&st.Wx, &st.Wy, &st.Wz} {
					st.Base[a] = r.Intn(5*dims[a]) - 2*dims[a]
					zero := r.Intn(16) == 0
					for i := range w {
						w[i] = specialOr(r, 4, r.Float64()*0.5)
						if zero {
							w[i] = 0
						}
					}
				}
				var F [3]float64
				for d := range F {
					F[d] = specialOr(r, 6, r.NormFloat64())
				}
				area := specialOr(r, 8, r.Float64())
				l.SpreadStencil(st, F, area)
				portable(func() { ref.SpreadStencil(st, F, area) })
				got := l.InterpolateStencil(st)
				var want [3]float64
				portable(func() { want = ref.InterpolateStencil(st) })
				if !sameOrNaN(got, want) {
					t.Fatalf("stencil %d %+v: gathered %v with the vector bodies, %v with the Go bodies", n, st, got, want)
				}
				if n%chunk == chunk-1 {
					compareVectorForces(t, "SpreadStencil", l.Macros(), ref.Macros())
				}
			}
		})
	}
}
