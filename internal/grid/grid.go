// Package grid provides the baseline fluid-grid storage used by the
// sequential and OpenMP-style LBM-IB solvers: a structured Nx×Ny×Nz mesh of
// fluid nodes stored as one contiguous x-major array of per-node structs
// (Figure 3 of the paper). Each node carries the two velocity-distribution
// buffers required by kernel 9 (copy_fluid_velocity_distribution), the
// macroscopic velocity and density, and the elastic force spread from the
// immersed structure.
//
// The cube-centric layout that the paper's contribution replaces this with
// lives in internal/cube.
package grid

import (
	"fmt"
	"math"

	"lbmib/internal/lattice"
)

// Node holds every per-fluid-node quantity of the LBM-IB method.
//
// DF is the "present" velocity-distribution buffer and DFNew the "new"
// buffer written by streaming; kernel 9 copies DFNew back into DF at the
// end of each time step exactly as the paper describes. Force accumulates
// the elastic force spread from fiber nodes during kernel 4 and is cleared
// when the force has been consumed by the fluid update.
type Node struct {
	DF    [lattice.Q]float64 // present velocity distribution g_i
	DFNew [lattice.Q]float64 // post-streaming distribution
	Vel   [3]float64         // macroscopic velocity u
	Rho   float64            // macroscopic density ρ
	Force [3]float64         // elastic force density from the structure
}

// Buf returns distribution buffer b of the node: 0 is the DF field, 1 the
// DFNew field. Together with the container's parity bit (Grid.Cur or
// cube.Layout.Cur) it lets the swap-based engines retire kernel 9: the
// "present" buffer of node n in grid g is n.Buf(g.Cur()) and the
// post-streaming buffer is n.Buf(1-g.Cur()), so ending a step is an O(1)
// parity flip instead of a ~300-byte copy per node.
func (n *Node) Buf(b int) *[lattice.Q]float64 {
	if b == 0 {
		return &n.DF
	}
	return &n.DFNew
}

// Grid is a structured Nx×Ny×Nz fluid mesh with all nodes stored in a
// single x-major slice: index = (x*Ny + y)*Nz + z. The container itself
// is boundary-agnostic — Wrap and the embedded IB coupling treat every
// axis as periodic, and the solvers' streaming step applies the
// configured per-axis conditions (core.StreamBC). In the block-layout
// contract the solvers share (core.Layout) its blocks are the NX
// x-planes of NY·NZ nodes.
type Grid struct {
	NX, NY, NZ int
	Nodes      []Node
	// Coupling spreads into and interpolates from Nodes. New and Clone
	// bind it; a Grid assembled as a literal only carries state.
	*Coupling

	// cur is the distribution-buffer parity: Nodes[i].Buf(cur) is the
	// present buffer, Nodes[i].Buf(1-cur) the post-streaming one. The
	// zero value (cur == 0, present == DF) is the paper's convention; only
	// the swap-based engines ever flip it, via Swap.
	cur int
}

// New allocates an Nx×Ny×Nz grid with every node at rest: ρ = 1, u = 0,
// and the distributions at their rest-state equilibrium (the lattice
// weights). It panics on non-positive dimensions, which are programming
// errors rather than runtime conditions.
func New(nx, ny, nz int) *Grid {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %d×%d×%d", nx, ny, nz))
	}
	g := &Grid{NX: nx, NY: ny, NZ: nz, Nodes: make([]Node, nx*ny*nz)}
	g.Coupling = NewCoupling(g.Nodes, g)
	g.Reset(1, [3]float64{})
	return g
}

// Reset reinitializes every node to density rho and velocity u, with both
// distribution buffers set to the corresponding equilibrium and zero
// elastic force.
func (g *Grid) Reset(rho float64, u [3]float64) {
	var geq [lattice.Q]float64
	lattice.Equilibrium(rho, u, &geq)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		n.DF = geq
		n.DFNew = geq
		n.Rho = rho
		n.Vel = u
		n.Force = [3]float64{}
	}
	g.cur = 0
}

// Idx returns the flat index of node (x, y, z). Coordinates must already be
// in range; use Wrap for periodic images.
func (g *Grid) Idx(x, y, z int) int { return (x*g.NY+y)*g.NZ + z }

// At returns the node at (x, y, z).
func (g *Grid) At(x, y, z int) *Node { return &g.Nodes[g.Idx(x, y, z)] }

// Wrap maps a possibly out-of-range coordinate triple onto the periodic
// domain.
func (g *Grid) Wrap(x, y, z int) (int, int, int) {
	return WrapIndex(x, g.NX), WrapIndex(y, g.NY), WrapIndex(z, g.NZ)
}

// WrapIndex maps a possibly out-of-range index onto [0, n), the periodic
// image along one axis.
func WrapIndex(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// NumNodes returns the total number of fluid nodes.
func (g *Grid) NumNodes() int { return len(g.Nodes) }

// Dims returns the fluid grid dimensions.
func (g *Grid) Dims() (nx, ny, nz int) { return g.NX, g.NY, g.NZ }

// Storage returns every node in layout order: block b (x-plane b)
// occupies Storage()[b·NY·NZ : (b+1)·NY·NZ].
func (g *Grid) Storage() []Node { return g.Nodes }

// BlockBox returns the fluid coordinates of block b's first node and the
// block's extent: x-plane b is the 1×NY×NZ box at (b, 0, 0).
func (g *Grid) BlockBox(b int) (origin, extent [3]int) {
	return [3]int{b, 0, 0}, [3]int{1, g.NY, g.NZ}
}

// Cur returns the distribution-buffer parity: node i's present buffer is
// Nodes[i].Buf(Cur()).
func (g *Grid) Cur() int { return g.cur }

// Swap retires kernel 9 in O(1): it flips the buffer parity so the
// post-streaming buffer becomes the present one. Engines that call Swap
// instead of copying must read distributions through Buf(Cur()); raw DF
// field reads are only valid at parity 0.
func (g *Grid) Swap() { g.cur ^= 1 }

// TotalMass returns Σ_nodes Σ_i g_i over the present distribution buffer.
// The BGK collision and periodic streaming conserve it exactly (up to
// floating-point rounding), which the test suite exploits as an invariant.
func (g *Grid) TotalMass() float64 { return TotalMass(g.Nodes, g.cur) }

// TotalMass sums distribution buffer cur over nodes in slice order — the
// body behind Grid.TotalMass and cube.Layout.TotalMass, whose results
// can differ in the last bits because the two layouts order their nodes
// differently.
func TotalMass(nodes []Node, cur int) float64 {
	sum := 0.0
	for i := range nodes {
		for _, v := range nodes[i].Buf(cur) {
			sum += v
		}
	}
	return sum
}

// TotalMomentum returns Σ_nodes Σ_i e_i g_i over the present buffer.
func (g *Grid) TotalMomentum() [3]float64 {
	var m [3]float64
	for i := range g.Nodes {
		buf := g.Nodes[i].Buf(g.cur)
		for q := 0; q < lattice.Q; q++ {
			v := buf[q]
			m[0] += v * float64(lattice.E[q][0])
			m[1] += v * float64(lattice.E[q][1])
			m[2] += v * float64(lattice.E[q][2])
		}
	}
	return m
}

// MaxVelocity returns the largest velocity magnitude over all nodes, a
// cheap stability diagnostic (|u| must stay well below the lattice speed of
// sound ≈ 0.577 for the simulation to be valid).
func (g *Grid) MaxVelocity() float64 { return MaxVelocity(g.Nodes) }

// MaxVelocity returns the largest velocity magnitude over nodes; a
// maximum is order-independent, so every layout reports the same bits.
func MaxVelocity(nodes []Node) float64 {
	max := 0.0
	for i := range nodes {
		v := nodes[i].Vel
		m2 := v[0]*v[0] + v[1]*v[1] + v[2]*v[2]
		if m2 > max {
			max = m2
		}
	}
	return math.Sqrt(max)
}

// StreamDeltas returns, for each lattice direction, the flat-index offset
// of the e_i neighbor of an interior node — the table the fused
// pull-streaming sweep negates to find the node it gathers from (source
// of direction q is the node at index − StreamDeltas()[q]). The
// push-streaming engines derive the same offsets for any layout in
// core.NewStreamer.
func (g *Grid) StreamDeltas() [lattice.Q]int {
	var d [lattice.Q]int
	for i := 0; i < lattice.Q; i++ {
		d[i] = (lattice.E[i][0]*g.NY+lattice.E[i][1])*g.NZ + lattice.E[i][2]
	}
	return d
}

// Clone returns a deep copy of the grid, used by the validation harness to
// snapshot states for cross-solver comparison.
func (g *Grid) Clone() *Grid {
	c := &Grid{NX: g.NX, NY: g.NY, NZ: g.NZ, Nodes: make([]Node, len(g.Nodes)), cur: g.cur}
	copy(c.Nodes, g.Nodes)
	c.Coupling = NewCoupling(c.Nodes, c)
	return c
}
