package grid

import (
	"lbmib/internal/cpu"
	"lbmib/internal/ibm"
)

// Coupling is the fluid side of the immersed-boundary coupling — kernel
// 4's scatter and kernel 8's gather — bound to one record array through
// its separable index: node (x, y, z) is macro[at[0][x]+at[1][y]+at[2][z]].
// *Grid and cube.Layout embed the one over their records. Its spread and
// gather are the only 64-point loops over a layout, and they touch the
// 56 B records alone, never the distributions. The engines enter them
// once per fiber node, with the stencil on their own frame: kernel 4
// through SpreadNode, each thread into the Box it owns, and kernel 8
// through Interpolate. SpreadStencil and InterpolateStencil make the
// layouts an ibm.ForceAccumulator and ibm.VelocitySampler. On an AVX2
// host (cpu.Vector) the two loops run coupling_amd64.s, a row of four
// weights per vector, with the Go loops' bits; the Go loops are the
// portable path, the race detector's and the vector bodies' oracle.
type Coupling struct {
	macro []Macro
	at    [3][]int
	// blk[a][c] is coordinate c's share of its node's block index along
	// axis a: node (x, y, z) lies in block blk[0][x]+blk[1][y]+blk[2][z].
	// whole[a] says that a block spans axis a whole, every share 0, and
	// wide[a] that it spans at least a stencil's width along it.
	blk         [3][]int
	whole, wide [3]bool
}

// Indexed is a layout's shape and separable flat index: Idx(x, y, z)
// = Idx(x, 0, 0) + Idx(0, y, 0) + Idx(0, 0, z). Both containers are.
type Indexed interface {
	Dims() (nx, ny, nz int)
	Idx(x, y, z int) int
}

// Blocked is Indexed with the block partition of a layout: block b is
// the box BlockBox(b) and occupies entries [b·n, (b+1)·n) of the
// layout's arrays, n the box's node count, z-fastest inside it.
type Blocked interface {
	Indexed
	BlockBox(b int) (origin, extent [3]int)
}

// NewCoupling binds the records macro, indexed by l, for spreading and
// interpolation.
func NewCoupling(macro []Macro, l Blocked) *Coupling {
	c := &Coupling{macro: macro, at: AxisIndex(l)}
	// A node's entry is its block's first entry plus its offset inside
	// the block, which is below n and separable like Idx; so each axis
	// term of the entry, divided by n, is that axis's share of the block
	// index.
	_, e := l.BlockBox(0)
	n := e[0] * e[1] * e[2]
	for a, t := range c.at {
		c.blk[a] = make([]int, len(t))
		for i, v := range t {
			c.blk[a][i] = v / n
		}
		c.whole[a], c.wide[a] = e[a] == len(t), e[a] >= ibm.SupportWidth
	}
	return c
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
// per-axis table t, once per stencil: this is where a computed stencil
// is wrapped onto the periodic domain (SpreadNode's boxWindow wraps the
// same way). A window already inside [0, n) on an axis — the common
// case — is one 4-entry slice of the axis table; any other — straddling
// a seam, far away, or from the saturated conversion of a non-finite
// position — wraps each coordinate with wrap, so o never indexes
// outside t's images.
func ResolveStencil(st *ibm.Stencil, t *[3][]int) (o [3][ibm.SupportWidth]int) {
	for a, ta := range t {
		n, base := len(ta), st.Base[a]
		if base >= 0 && base <= n-ibm.SupportWidth {
			o[a] = [ibm.SupportWidth]int(ta[base:])
			continue
		}
		for i := range o[a] {
			o[a][i] = ta[wrap(base+i, n)]
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

// wrap maps lattice coordinate x onto [0, n): a compare when x is in
// range, WrapIndex's modulo otherwise.
func wrap(x, n int) int {
	if uint(x) >= uint(n) {
		x = WrapIndex(x, n)
	}
	return x
}

// SpreadNode is kernel 4 for one fiber node at x carrying force F,
// restricted to the fluid in b: F·w·area is added at every point of the
// node's stencil (ibm.Stencil.Compute) that lies in b, and nowhere else.
// Each of the stencil's twelve coordinates is wrapped once (boxWindow),
// and that serves four jobs. Axis by axis, and before any weight is
// computed, the window must meet b — one of its coordinates in [Lo, Hi)
// — or the node is skipped; the window's offsets and out-of-box mask
// come with the same wrap. Then the weights are computed, those of
// out-of-box coordinates zeroed. The loop skips a zeroed weight as it
// skips any zero weight, so every node in b receives the very products,
// in the very order, that SpreadStencil gives it.
//
// With a non-nil m, the node also marks in m.Reach every block holding
// an in-box point of its window, whether or not a weight there is zero
// (Marker).
//
// st is the caller's scratch, reused from node to node: SpreadNode
// writes its bases (ibm.StencilBase) to place the window, and then, for
// a node it does not skip, fills it whole (ibm.Stencil.Compute, which
// writes the same bases again). A stencil declared per node would be
// zeroed per node first.
func (c *Coupling) SpreadNode(x, F [3]float64, area float64, b *Box, m *Marker, st *ibm.Stencil) {
	var o [3][ibm.SupportWidth]int
	var out [3][ibm.SupportWidth]bool
	for a := range o {
		st.Base[a] = ibm.StencilBase(x[a])
		if !c.boxWindow(a, st.Base[a], b, &o[a], &out[a]) {
			return
		}
	}
	if m != nil {
		// The window's blocks depend on its bases along the axes a block
		// does not span whole; a node whose bases there are those marked
		// last marks nothing.
		var key [3]int
		for a := range key {
			if !c.whole[a] {
				key[a] = st.Base[a]
			}
		}
		if !m.marked || m.last != key {
			c.mark(&st.Base, &out, m.Reach)
			m.last, m.marked = key, true
		}
	}
	st.Compute(x)
	for a, w := range [3]*[ibm.SupportWidth]float64{&st.Wx, &st.Wy, &st.Wz} {
		for i := range w {
			if out[a][i] {
				w[i] = 0
			}
		}
	}
	c.spread(st, &o, F, area)
}

// Marker collects, for one owner's spread into its box, the blocks the
// fiber nodes' windows reach: Reach is indexed like the layout's blocks,
// and a node sets the entry of every block that holds an in-box point of
// its window. Kernel 8 gathers from the same windows, so the marked
// blocks are those whose records kernels 4 and 8 of the step touch, and a
// block's owner is the only one to mark it. Neighbouring fiber nodes
// often share their window's blocks; a node whose window falls in the
// blocks marked last marks nothing. One Marker serves one box.
type Marker struct {
	Reach  []bool
	last   [3]int // the window bases marked last, along the axes that decide its blocks
	marked bool
}

// boxWindow resolves the window base, base+1, …, base+3 on axis a for a
// spread into b, wrapping each coordinate once, and reports whether one
// of them lies in [Lo, Hi). If so, o gets their flat offsets and out
// marks those outside. A window already inside [0, n) is tested against
// the box by its two ends, and its offsets are one slice of the table.
func (c *Coupling) boxWindow(a, base int, b *Box, o *[ibm.SupportWidth]int, out *[ibm.SupportWidth]bool) (reach bool) {
	t, lo, hi := c.at[a], b.Lo[a], b.Hi[a]
	if n := len(t); base >= 0 && base <= n-ibm.SupportWidth {
		if base+ibm.SupportWidth <= lo || base >= hi {
			return false
		}
		// Element by element: the array conversion of the slice is a
		// runtime memmove call, 7 % of a spread into a box.
		w := t[base : base+ibm.SupportWidth]
		for i := range out {
			o[i] = w[i]
			out[i] = base+i < lo || base+i >= hi
		}
		return true
	}
	for i := range o {
		p := wrap(base+i, len(t))
		o[i] = t[p]
		out[i] = p < lo || p >= hi
		reach = reach || !out[i]
	}
	return reach
}

// mark sets reach for every block that holds an in-box point of the
// window at base (out marks the points outside the box, as boxWindow
// resolved them; a coordinate wraps as there): the product, over the
// axes, of the blocks (axis shares) the in-box coordinates fall in. An
// axis a block spans whole (y and z on the slab grid) contributes share
// 0 without a look. Where a block spans at least the window's four
// coordinates, those fall in at most two runs of one block each, one
// holding the first in-box coordinate and one the last, so those two
// stand for all; a narrower block (x on the slab grid) lists every
// in-box coordinate's. A block listed twice is marked twice.
func (c *Coupling) mark(base *[3]int, out *[3][ibm.SupportWidth]bool, reach []bool) {
	var sh [3][ibm.SupportWidth]int
	var n [3]int
	for a := range sh {
		t, o := c.blk[a], &out[a]
		switch {
		case c.whole[a]:
			n[a] = 1
		case c.wide[a]:
			i, j := 0, ibm.SupportWidth-1
			for o[i] {
				i++
			}
			for o[j] {
				j--
			}
			sh[a][0], sh[a][1] = t[wrap(base[a]+i, len(t))], t[wrap(base[a]+j, len(t))]
			n[a] = 2
			if sh[a][0] == sh[a][1] {
				n[a] = 1
			}
		default:
			k := 0
			for i := range o {
				if !o[i] {
					sh[a][k] = t[wrap(base[a]+i, len(t))]
					k++
				}
			}
			n[a] = k
		}
	}
	for _, bx := range sh[0][:n[0]] {
		for _, by := range sh[1][:n[1]] {
			for _, bz := range sh[2][:n[2]] {
				reach[bx+by+bz] = true
			}
		}
	}
}

// SpreadStencil adds F·w·area to the force of every node of the stencil,
// w its delta weight: ibm.ForceAccumulator's method, the whole-domain
// case of SpreadNode for a stencil already computed.
func (c *Coupling) SpreadStencil(st ibm.Stencil, F [3]float64, area float64) {
	o := ResolveStencil(&st, &c.at)
	c.spread(&st, &o, F, area)
}

// InterpolateStencil returns Σ w·u over the stencil's nodes:
// ibm.VelocitySampler's method.
func (c *Coupling) InterpolateStencil(st ibm.Stencil) [3]float64 {
	o := ResolveStencil(&st, &c.at)
	return c.gather(&st, &o)
}

// Interpolate returns the fluid velocity at fiber-node position x (the
// gather of kernel 8 for one fiber node): ibm.Interpolate without the
// interface call and the stencil copy.
func (c *Coupling) Interpolate(x [3]float64) [3]float64 {
	var st ibm.Stencil
	st.Compute(x)
	o := ResolveStencil(&st, &c.at)
	return c.gather(&st, &o)
}

// spread is the 64-point scatter over resolved offsets o: the AVX2 body
// (coupling_amd64.s) where cpu.Vector reports one, spreadGo otherwise,
// with the same bits.
func (c *Coupling) spread(st *ibm.Stencil, o *[3][ibm.SupportWidth]int, F [3]float64, area float64) {
	if cpu.Vector() {
		spreadAVX2(c.macro, st, o, F[0], F[1], F[2], area)
		return
	}
	spreadGo(c.macro, st, o, F, area)
}

// spreadGo is spread's Go loop over the records macro, the portable body
// and the oracle of the vector one. float64(…) rounds the product before
// the add on every architecture (the bitwise contract). An exactly zero
// weight skips its plane, row or node: the products it would add are
// exactly 0. The z row is unrolled over its four offsets and weights,
// held in locals; the product order is (wx·wy)·wz·area.
func spreadGo(macro []Macro, st *ibm.Stencil, o *[3][ibm.SupportWidth]int, F [3]float64, area float64) {
	f0, f1, f2 := F[0], F[1], F[2]
	z0, z1, z2, z3 := o[2][0], o[2][1], o[2][2], o[2][3]
	wz0, wz1, wz2, wz3 := st.Wz[0], st.Wz[1], st.Wz[2], st.Wz[3]
	for i, wx := range &st.Wx {
		if wx == 0 {
			continue
		}
		for j, wy := range &st.Wy {
			wxy := wx * wy
			if wxy == 0 {
				continue
			}
			ij := o[0][i] + o[1][j]
			if w := wxy * wz0 * area; w != 0 {
				addForce(&macro[ij+z0], f0, f1, f2, w)
			}
			if w := wxy * wz1 * area; w != 0 {
				addForce(&macro[ij+z1], f0, f1, f2, w)
			}
			if w := wxy * wz2 * area; w != 0 {
				addForce(&macro[ij+z2], f0, f1, f2, w)
			}
			if w := wxy * wz3 * area; w != 0 {
				addForce(&macro[ij+z3], f0, f1, f2, w)
			}
		}
	}
}

func addForce(m *Macro, f0, f1, f2, w float64) {
	m.Force[0] += float64(f0 * w)
	m.Force[1] += float64(f1 * w)
	m.Force[2] += float64(f2 * w)
}

// gather is the 64-point gather over resolved offsets o: the AVX2 body
// where cpu.Vector reports one, gatherGo otherwise, with the same bits.
func (c *Coupling) gather(st *ibm.Stencil, o *[3][ibm.SupportWidth]int) [3]float64 {
	if cpu.Vector() {
		u0, u1, u2 := gatherAVX2(c.macro, st, o)
		return [3]float64{u0, u1, u2}
	}
	return gatherGo(c.macro, st, o)
}

// gatherGo is gather's Go loop over the records macro, the portable body
// and the oracle of the vector one: it skips exactly zero weights as
// spreadGo does and is unrolled the same way; u accumulates the nodes in
// (i, j, k) order.
func gatherGo(macro []Macro, st *ibm.Stencil, o *[3][ibm.SupportWidth]int) [3]float64 {
	z0, z1, z2, z3 := o[2][0], o[2][1], o[2][2], o[2][3]
	wz0, wz1, wz2, wz3 := st.Wz[0], st.Wz[1], st.Wz[2], st.Wz[3]
	var u0, u1, u2 float64
	for i, wx := range &st.Wx {
		if wx == 0 {
			continue
		}
		for j, wy := range &st.Wy {
			wxy := wx * wy
			if wxy == 0 {
				continue
			}
			ij := o[0][i] + o[1][j]
			if w := wxy * wz0; w != 0 {
				u0, u1, u2 = addVel(u0, u1, u2, &macro[ij+z0], w)
			}
			if w := wxy * wz1; w != 0 {
				u0, u1, u2 = addVel(u0, u1, u2, &macro[ij+z1], w)
			}
			if w := wxy * wz2; w != 0 {
				u0, u1, u2 = addVel(u0, u1, u2, &macro[ij+z2], w)
			}
			if w := wxy * wz3; w != 0 {
				u0, u1, u2 = addVel(u0, u1, u2, &macro[ij+z3], w)
			}
		}
	}
	return [3]float64{u0, u1, u2}
}

func addVel(u0, u1, u2 float64, m *Macro, w float64) (float64, float64, float64) {
	return u0 + w*m.Vel[0], u1 + w*m.Vel[1], u2 + w*m.Vel[2]
}
