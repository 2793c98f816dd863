// Package grid provides the slab fluid storage of the sequential,
// OpenMP-style and fused engines: a structured Nx×Ny×Nz mesh in x-major
// order, stored split: one array of the 19 distribution values per node
// (152 B), and everything else a node carries — the macroscopic velocity
// and density and the elastic force spread from the immersed structure —
// in one array of the 56 B Macro record, 208 B per node in all. A kernel
// then streams only the arrays it needs: collision reads the
// distributions and the records, the force reset the records alone.
//
// There is one distribution array, not two. The parallel engines stream
// in place through it (the AA pattern, internal/core), and the sequential
// engine holds kernel 6's post-streaming array itself. The paper's
// Figure 3 stores a fluid node as one struct holding both buffers and
// the record. That struct is Node, which survives as the per-node record
// of Snapshot — the engine-independent copy of a fluid state — and of
// the version-1 checkpoint stream, not as the storage of any engine.
//
// The cube-centric layout that the paper's contribution replaces the slab
// with lives in internal/cube.
package grid

import (
	"fmt"
	"math"

	"lbmib/internal/lattice"
)

// Macro is the per-node record besides the distributions: the
// macroscopic velocity u and density ρ, and the elastic force density
// spread from the structure during kernel 4 and consumed by the fluid
// update. 56 bytes.
type Macro struct {
	Vel   [3]float64 // macroscopic velocity u
	Rho   float64    // macroscopic density ρ
	Force [3]float64 // elastic force density from the structure
}

// Grid is a structured Nx×Ny×Nz fluid mesh with every per-node array in
// x-major order: index = (x*Ny + y)*Nz + z. The container itself is
// boundary-agnostic — Wrap and the embedded IB coupling treat every axis
// as periodic, and the solvers' streaming step applies the configured
// per-axis conditions (core.StreamBC). In the block-layout contract the
// solvers share (core.Layout) its blocks are the NX x-planes of NY·NZ
// nodes.
type Grid struct {
	NX, NY, NZ int
	// Coupling spreads into and interpolates from the records. New and
	// Clone bind it.
	*Coupling

	// dist holds each node's 19 distribution values: the present ones,
	// or between the two halves of an in-place step whatever phase the
	// engine streaming it has left them in (core.AABlock).
	dist  [][lattice.Q]float64
	macro []Macro
}

// New allocates an Nx×Ny×Nz grid with every node at rest: ρ = 1, u = 0,
// and the distributions at their rest-state equilibrium (the lattice
// weights). It panics on non-positive dimensions, which are programming
// errors rather than runtime conditions.
func New(nx, ny, nz int) *Grid {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %d×%d×%d", nx, ny, nz))
	}
	n := nx * ny * nz
	g := &Grid{NX: nx, NY: ny, NZ: nz,
		dist:  make([][lattice.Q]float64, n),
		macro: make([]Macro, n),
	}
	g.Coupling = NewCoupling(g.macro, g)
	g.Reset(1, [3]float64{})
	return g
}

// Reset reinitializes every node to density rho and velocity u, with the
// distributions set to the corresponding equilibrium and zero elastic
// force.
func (g *Grid) Reset(rho float64, u [3]float64) { Reset(g.dist, g.macro, rho, u) }

// Reset fills the distributions with the equilibrium of (rho, u) and
// every record with (u, rho, zero force): the body behind Grid.Reset and
// cube.Layout.Reset.
func Reset(dist [][lattice.Q]float64, macro []Macro, rho float64, u [3]float64) {
	var geq [lattice.Q]float64
	lattice.Equilibrium(rho, u, &geq)
	for i := range dist {
		dist[i] = geq
	}
	for i := range macro {
		macro[i] = Macro{Vel: u, Rho: rho}
	}
}

// Idx returns the flat index of node (x, y, z). Coordinates must already be
// in range; use Wrap for periodic images.
func (g *Grid) Idx(x, y, z int) int { return (x*g.NY+y)*g.NZ + z }

// At returns the record of node (x, y, z).
func (g *Grid) At(x, y, z int) *Macro { return &g.macro[g.Idx(x, y, z)] }

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
func (g *Grid) NumNodes() int { return len(g.macro) }

// Dims returns the fluid grid dimensions.
func (g *Grid) Dims() (nx, ny, nz int) { return g.NX, g.NY, g.NZ }

// Dist returns the distribution array in layout order. Block b (x-plane
// b) occupies entries [b·NY·NZ, (b+1)·NY·NZ).
func (g *Grid) Dist() [][lattice.Q]float64 { return g.dist }

// Macros returns every node's record in layout order.
func (g *Grid) Macros() []Macro { return g.macro }

// Record returns node i's present distributions and its record.
func (g *Grid) Record(i int) (*[lattice.Q]float64, Macro) { return &g.dist[i], g.macro[i] }

// BlockBox returns the fluid coordinates of block b's first node and the
// block's extent: x-plane b is the 1×NY×NZ box at (b, 0, 0).
func (g *Grid) BlockBox(b int) (origin, extent [3]int) {
	return [3]int{b, 0, 0}, [3]int{1, g.NY, g.NZ}
}

// TotalMass returns Σ_nodes Σ_i g_i over the distributions.
// The BGK collision and periodic streaming conserve it exactly (up to
// floating-point rounding), which the test suite exploits as an invariant.
func (g *Grid) TotalMass() float64 { return TotalMass(g.dist) }

// TotalMass sums dist node by node in slice order — the body behind
// Grid.TotalMass and cube.Layout.TotalMass. Grid and cube results can differ in the last
// bits because the two layouts order their nodes differently.
func TotalMass(dist [][lattice.Q]float64) float64 {
	sum := 0.0
	for i := range dist {
		for _, v := range &dist[i] {
			sum += v
		}
	}
	return sum
}

// TotalMomentum returns Σ_nodes Σ_i e_i g_i over the distributions.
func (g *Grid) TotalMomentum() [3]float64 {
	var m [3]float64
	for i := range g.dist {
		buf := &g.dist[i]
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
func (g *Grid) MaxVelocity() float64 { return MaxVelocity(g.macro) }

// MaxVelocity returns the largest velocity magnitude over the records; a
// maximum is order-independent, so every layout reports the same bits.
func MaxVelocity(macro []Macro) float64 {
	max := 0.0
	for i := range macro {
		if m2 := speed2(macro[i].Vel); m2 > max {
			max = m2
		}
	}
	return math.Sqrt(max)
}

func speed2(v [3]float64) float64 { return v[0]*v[0] + v[1]*v[1] + v[2]*v[2] }

// Clone returns a deep copy of the grid, used by the validation harness to
// snapshot states for cross-solver comparison.
func (g *Grid) Clone() *Grid {
	c := &Grid{NX: g.NX, NY: g.NY, NZ: g.NZ,
		dist:  append([][lattice.Q]float64(nil), g.dist...),
		macro: append([]Macro(nil), g.macro...),
	}
	c.Coupling = NewCoupling(c.macro, c)
	return c
}
