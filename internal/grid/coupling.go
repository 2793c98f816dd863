package grid

import "lbmib/internal/ibm"

// Coupling is the fluid side of the immersed-boundary coupling — kernel
// 4's scatter and kernel 8's gather — bound to one record array through
// its separable index: node (x, y, z) is macro[at[0][x]+at[1][y]+at[2][z]].
// *Grid and cube.Layout embed the one over their records, which makes
// both an ibm.ForceAccumulator and ibm.VelocitySampler; its two methods
// are the only 64-point loops over a layout, and they touch the 56 B
// records alone, never the distributions. Concurrent spreads go through
// SpreadStencilBox, each thread into the Box it owns.
type Coupling struct {
	macro []Macro
	at    [3][]int
}

// Indexed is a layout's shape and separable flat index: Idx(x, y, z)
// = Idx(x, 0, 0) + Idx(0, y, 0) + Idx(0, 0, z). Both containers are.
type Indexed interface {
	Dims() (nx, ny, nz int)
	Idx(x, y, z int) int
}

// NewCoupling binds the records macro, indexed by l, for spreading and
// interpolation.
func NewCoupling(macro []Macro, l Indexed) *Coupling {
	return &Coupling{macro: macro, at: AxisIndex(l)}
}

// AxisIndex tabulates l's Idx: Idx(x, y, z) = at[0][x] + at[1][y] + at[2][z].
func AxisIndex(l Indexed) (at [3][]int) {
	nx, ny, nz := l.Dims()
	at = [3][]int{make([]int, nx), make([]int, ny), make([]int, nz)}
	for a := range at {
		for c := range at[a] {
			var x [3]int
			x[a] = c
			at[a][c] = l.Idx(x[0], x[1], x[2])
		}
	}
	return at
}

// ResolveStencil looks the stencil's 4+4+4 lattice coordinates up in the
// per-axis table t, once per stencil. This is where the coupling wraps,
// for every accumulator and sampler: a coordinate already in range costs
// a compare, any other — negative, far away, or the saturated conversion
// of a non-finite position — takes WrapIndex's modulo, so o never
// indexes outside t's images.
func ResolveStencil(st *ibm.Stencil, t *[3][]int) (o [3][ibm.SupportWidth]int) {
	for a := range o {
		n := len(t[a])
		for i := range o[a] {
			o[a][i] = t[a][wrap(st.Base[a]+i, n)]
		}
	}
	return o
}

// Box is the fluid one thread owns for kernel 4: the lattice coordinates
// with Lo[a] ≤ c < Hi[a] on every axis a, inside the domain. A parallel
// engine's owned boxes partition the domain — one x-slab per thread on
// the slab engines, the span of a thread's cubes per axis on the cube
// engine.
type Box struct{ Lo, Hi [3]int }

// Whole returns the box of the whole domain.
func (c *Coupling) Whole() Box {
	return Box{Hi: [3]int{len(c.at[0]), len(c.at[1]), len(c.at[2])}}
}

// wrap maps lattice coordinate x onto [0, n) as ResolveStencil does: a
// compare when x is in range, WrapIndex's modulo otherwise.
func wrap(x, n int) int {
	if uint(x) >= uint(n) {
		x = WrapIndex(x, n)
	}
	return x
}

// Reaches reports whether the stencil of a fiber node at x
// (ibm.Stencil.Compute) has a point in b, from one floor per axis and
// before any weight is computed: along every axis one of the window's
// coordinates base, base+1, …, base+3, wrapped as ResolveStencil wraps
// them, lies in [Lo, Hi).
func (c *Coupling) Reaches(x [3]float64, b *Box) bool {
axes:
	for a, xa := range x {
		n, base := len(c.at[a]), ibm.StencilBase(xa)
		for i := 0; i < ibm.SupportWidth; i++ {
			if p := wrap(base+i, n); p >= b.Lo[a] && p < b.Hi[a] {
				continue axes
			}
		}
		return false
	}
	return true
}

// SpreadStencilBox is SpreadStencil restricted to the nodes in b. The
// in-box mask is resolved once per stencil, per axis: the weight of a
// coordinate outside b is zeroed, so the loop skips its points as it
// skips any zero weight, and every node in b receives the very products,
// in the very order, that SpreadStencil gives it.
func (c *Coupling) SpreadStencilBox(st ibm.Stencil, F [3]float64, area float64, b *Box) {
	for a, w := range [3]*[ibm.SupportWidth]float64{&st.Wx, &st.Wy, &st.Wz} {
		n := len(c.at[a])
		for i := range w {
			if x := wrap(st.Base[a]+i, n); x < b.Lo[a] || x >= b.Hi[a] {
				w[i] = 0
			}
		}
	}
	c.SpreadStencil(st, F, area)
}

// SpreadStencil adds F·w·area to the force of every node of the stencil,
// w its delta weight (kernel 4 for one fiber node): the whole-domain case
// of SpreadStencilBox. float64(…) rounds the product before the add on
// every architecture (the bitwise contract).
//
//lint:allow floatcheck -- exact-zero delta-function weights skip whole stencil planes; the product they'd contribute is exactly 0
func (c *Coupling) SpreadStencil(st ibm.Stencil, F [3]float64, area float64) {
	o := ResolveStencil(&st, &c.at)
	macro, f0, f1, f2 := c.macro, F[0], F[1], F[2]
	for i, wx := range &st.Wx {
		if wx == 0 {
			continue
		}
		for j := range st.Wy {
			wxy := wx * st.Wy[j]
			if wxy == 0 {
				continue
			}
			ij := o[0][i] + o[1][j]
			for k := range st.Wz {
				w := wxy * st.Wz[k] * area
				if w == 0 {
					continue
				}
				f := &macro[ij+o[2][k]].Force
				f[0] += float64(f0 * w)
				f[1] += float64(f1 * w)
				f[2] += float64(f2 * w)
			}
		}
	}
}

// InterpolateStencil returns Σ w·u over the stencil's nodes (the gather
// of kernel 8 for one fiber node).
//
//lint:allow floatcheck -- exact-zero delta-function weights skip whole stencil planes; the product they'd contribute is exactly 0
func (c *Coupling) InterpolateStencil(st ibm.Stencil) [3]float64 {
	o := ResolveStencil(&st, &c.at)
	macro := c.macro
	var u0, u1, u2 float64
	for i, wx := range &st.Wx {
		if wx == 0 {
			continue
		}
		for j := range st.Wy {
			wxy := wx * st.Wy[j]
			if wxy == 0 {
				continue
			}
			ij := o[0][i] + o[1][j]
			for k := range st.Wz {
				w := wxy * st.Wz[k]
				if w == 0 {
					continue
				}
				v := &macro[ij+o[2][k]].Vel
				u0 += w * v[0]
				u1 += w * v[1]
				u2 += w * v[2]
			}
		}
	}
	return [3]float64{u0, u1, u2}
}
