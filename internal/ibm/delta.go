// Package ibm implements the fluid–structure coupling of the immersed
// boundary method: the smoothed 4-point Peskin Dirac delta, the 4×4×4
// "influential domain" stencil around a fiber node (Section III-B of the
// paper), and the per-stencil contract through which elastic force is
// spread from fiber nodes to fluid nodes (kernel 4) and velocity
// interpolated back (the gather half of kernel 8, move_fibers). The
// 64-point loops over fluid storage, and the periodic wrap, live with the
// storage in grid.Coupling; the engines call it directly, and the
// interfaces below are the per-stencil contract for everything else.
//
// Stencil.Compute evaluates Phi4's body without its absolute value,
// inlined twelve times per stencil; Phi4 itself stays the reference the
// weights equal bit for bit.
//
// The delta kernel is separable: δ_h(x) = φ(x)φ(y)φ(z) with h = 1 in
// lattice units, where φ is Peskin's standard 4-point function. Its support
// is the 4×4×4 block of fluid nodes around the fiber node — exactly the
// influential domain the paper describes.
package ibm

import "math"

// SupportWidth is the number of fluid nodes the delta kernel touches along
// each axis (the influential domain is SupportWidth³ = 64 nodes).
const SupportWidth = 4

// Phi4 is Peskin's 4-point regularized delta kernel in one dimension:
//
//	φ(r) = (3 − 2|r| + √(1 + 4|r| − 4r²)) / 8      for |r| ≤ 1
//	φ(r) = (5 − 2|r| − √(−7 + 12|r| − 4r²)) / 8    for 1 ≤ |r| ≤ 2
//	φ(r) = 0                                        otherwise
//
// It is continuous, non-negative, has unit integral, and satisfies the
// discrete partition-of-unity and first-moment identities
// Σ_j φ(r − j) = 1 and Σ_j (r − j) φ(r − j) = 0 for every real r.
func Phi4(r float64) float64 { return phi4(math.Abs(r)) }

// phi4 is Phi4 at a = |r|. Split from the absolute value, it fits the
// compiler's inlining budget, which Phi4 as a whole does not, so
// Compute's twelve calls per stencil are inlined.
func phi4(a float64) float64 {
	switch {
	case a <= 1:
		return (3 - 2*a + math.Sqrt(1+4*a-4*a*a)) / 8
	case a <= 2:
		return (5 - 2*a - math.Sqrt(-7+12*a-4*a*a)) / 8
	default:
		return 0
	}
}

// Stencil is the precomputed influential domain of one fiber node: the
// lattice coordinates of the lower corner of its 4×4×4 fluid-node block and
// the separable one-dimensional delta weights along each axis. The weight
// of fluid node (Base[0]+i, Base[1]+j, Base[2]+k) is Wx[i]·Wy[j]·Wz[k].
//
// Base coordinates are *unwrapped* and may be anything an int holds (a
// non-finite position saturates the conversion): grid.Coupling maps
// them onto the periodic domain, once per coordinate, for every
// implementation of the interfaces below.
type Stencil struct {
	Base       [3]int
	Wx, Wy, Wz [SupportWidth]float64
}

// StencilBase is the lowest lattice coordinate of the support of a fiber
// node at coordinate x along one axis: the 4-point kernel centered at x
// is supported on sites floor(x)−1 … floor(x)+2.
func StencilBase(x float64) int { return int(math.Floor(x)) - 1 }

// Compute fills the stencil for a fiber node at position x (lattice
// units). Each weight is Phi4(x − (Base+i)) bit for bit, through Phi4's
// inlined body.
func (s *Stencil) Compute(x [3]float64) {
	for d := 0; d < 3; d++ {
		s.Base[d] = StencilBase(x[d])
	}
	for i := 0; i < SupportWidth; i++ {
		s.Wx[i] = phi4(math.Abs(x[0] - float64(s.Base[0]+i)))
		s.Wy[i] = phi4(math.Abs(x[1] - float64(s.Base[1]+i)))
		s.Wz[i] = phi4(math.Abs(x[2] - float64(s.Base[2]+i)))
	}
}

// WeightSum returns Σ_{ijk} Wx[i]Wy[j]Wz[k]. By the partition-of-unity
// property it equals 1 for any position; exposed for tests and diagnostics.
func (s *Stencil) WeightSum() float64 {
	sx, sy, sz := 0.0, 0.0, 0.0
	for i := 0; i < SupportWidth; i++ {
		sx += s.Wx[i]
		sy += s.Wy[i]
		sz += s.Wz[i]
	}
	return sx * sy * sz
}

// ForceAccumulator receives a fiber node's elastic force one stencil at
// a time — one dynamic call per fiber node, the stencil by value (a
// pointer through the interface would escape); the 64-point loop is the
// implementation's own: grid.Coupling, for the slab grid and the cube
// layout alike.
type ForceAccumulator interface {
	// SpreadStencil adds F·w·area to the elastic force of every fluid
	// node of st, w being the node's delta weight.
	SpreadStencil(st Stencil, F [3]float64, area float64)
}

// VelocitySampler interpolates the fluid velocity over one stencil.
type VelocitySampler interface {
	// InterpolateStencil returns Σ w·u over the fluid nodes of st.
	InterpolateStencil(st Stencil) [3]float64
}

// Spread distributes the elastic force F of a fiber node at position x
// onto its influential domain: each fluid node receives F · δ_h(x_f − X) ·
// area, where area is the Lagrangian area element Δq·Δr of the sheet
// (kernel 4, spread_force_from_fibers_to_fluid).
func Spread(acc ForceAccumulator, x [3]float64, F [3]float64, area float64) {
	var st Stencil
	st.Compute(x)
	acc.SpreadStencil(st, F, area)
}

// Interpolate returns the fluid velocity at fiber-node position x:
// U(X) = Σ_f u(x_f) δ_h(x_f − X) h³ with h = 1 (the velocity-gather half of
// kernel 8).
func Interpolate(v VelocitySampler, x [3]float64) [3]float64 {
	var st Stencil
	st.Compute(x)
	return v.InterpolateStencil(st)
}
