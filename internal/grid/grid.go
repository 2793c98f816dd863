// Package grid provides the fluid storage every engine steps: a
// structured Nx×Ny×Nz mesh stored split, one array of the 19 distribution
// values per node (152 B), and everything else a node carries — the
// macroscopic velocity and density and the elastic force spread from
// the immersed structure — in one array of the 56 B Macro record, 208 B
// per node in all. A kernel then streams only the arrays it needs:
// collision reads the distributions and the records, the force reset the
// records alone.
//
// The nodes are stored in equal blocks of one extent (bx, by, bz), one
// block after another in x-major block order, z-fastest inside a block.
// The block is the unit of ownership and locality: the x-plane slab
// (1, NY, NZ) of the sequential and OpenMP-style engines (New),
// whose order is plain x-major, and the k×k×k cubes of the paper's
// cube-based algorithm (Section V), each cube's nodes one contiguous
// block (NewBlocked). Every body reaches the nodes through the one
// contract Grid states, so the block shape is a parameter, not a type.
//
// There is one distribution array, not two. The parallel engines stream
// in place through it (the AA pattern, internal/core), and the sequential
// engine holds kernel 6's post-streaming array itself. The paper's
// Figure 3 stores a fluid node as one struct holding both buffers and
// the record. That struct is Node, which survives as the per-node record
// of Snapshot — the engine-independent copy of a fluid state — and of
// the version-1 checkpoint stream, not as the storage of any engine.
package grid

import (
	"fmt"
	"math"

	"lbmib/internal/lattice"
)

// Macro is the per-node record besides the distributions: the
// macroscopic velocity u and density ρ, and the elastic force density
// spread from the structure during kernel 4 and consumed by the fluid
// update. 56 bytes. It is the node kernel's lattice.Record, so that a
// run of records is what lattice.CollideGroup reads.
type Macro = lattice.Record

// Grid is a structured Nx×Ny×Nz fluid mesh stored in blocks of one
// extent: block b is the box BlockBox(b) of the domain and occupies
// entries [b·n, (b+1)·n) of every per-node array, n the box's node
// count, ordered z-fastest inside the box; the blocks run in x-major
// order of their origins. Idx is separable per axis,
//
//	Idx(x, y, z) = Idx(x, 0, 0) + Idx(0, y, 0) + Idx(0, 0, z),
//
// which lets the bodies tabulate it once (AxisIndex) and index the arrays
// directly in their inner loops. The container itself is
// boundary-agnostic — Wrap and the embedded IB coupling treat every axis
// as periodic, and the solvers' streaming step applies the configured
// per-axis conditions (core.StreamBC). Between steps an engine that
// streams in place may leave Dist() in the swapped phase (core.AABlock);
// the engine's Live method presents the natural one.
type Grid struct {
	NX, NY, NZ int
	// Coupling spreads into and interpolates from the records. The
	// constructors and Clone bind it.
	*Coupling

	block [3]int // the extent of one block
	// dist holds each node's 19 distribution values: the present ones,
	// or between the two halves of an in-place step whatever phase the
	// engine streaming it has left them in (core.AABlock).
	dist  [][lattice.Q]float64
	macro []Macro
}

// New allocates an Nx×Ny×Nz slab grid — blocks of one x-plane, so the
// storage is plain x-major, index (x*Ny + y)*Nz + z — with every node at
// rest: ρ = 1, u = 0, and the distributions at their rest-state
// equilibrium (the lattice weights). It panics on non-positive
// dimensions, which are programming errors rather than runtime
// conditions.
func New(nx, ny, nz int) *Grid {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %d×%d×%d", nx, ny, nz))
	}
	return newGrid(nx, ny, nz, [3]int{1, ny, nz})
}

// NewBlocked allocates an Nx×Ny×Nz grid at rest stored in blocks of
// extent block: (k, k, k) gives the paper's cubes, (1, ny, nz) the slab
// New builds. Every dimension must be a positive multiple of the
// extent's.
func NewBlocked(nx, ny, nz int, block [3]int) (*Grid, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("grid: non-positive dimensions %d×%d×%d", nx, ny, nz)
	}
	if block[0] < 1 || block[1] < 1 || block[2] < 1 {
		return nil, fmt.Errorf("grid: non-positive block extent %v", block)
	}
	if nx%block[0] != 0 || ny%block[1] != 0 || nz%block[2] != 0 {
		return nil, fmt.Errorf("grid: dimensions %d×%d×%d not divisible by block extent %v", nx, ny, nz, block)
	}
	return newGrid(nx, ny, nz, block), nil
}

func newGrid(nx, ny, nz int, block [3]int) *Grid {
	n := nx * ny * nz
	g := &Grid{NX: nx, NY: ny, NZ: nz, block: block,
		dist:  make([][lattice.Q]float64, n),
		macro: make([]Macro, n),
	}
	g.Coupling = newCoupling(g)
	g.Reset(1, [3]float64{})
	return g
}

// Reset reinitializes every node to density rho and velocity u, with the
// distributions set to the corresponding equilibrium and zero elastic
// force.
func (g *Grid) Reset(rho float64, u [3]float64) {
	var geq [lattice.Q]float64
	lattice.Equilibrium(rho, u, &geq)
	for i := range g.dist {
		g.dist[i] = geq
	}
	for i := range g.macro {
		g.macro[i] = Macro{Vel: u, Rho: rho}
	}
}

// Idx returns the flat index of node (x, y, z), looked up in the
// coupling's per-axis tables. Coordinates must already be in range; use
// Wrap for periodic images.
func (g *Grid) Idx(x, y, z int) int { return g.at[0][x] + g.at[1][y] + g.at[2][z] }

// index computes Idx from the block extent: the node's block's first
// entry plus its offset inside the block.
func (g *Grid) index(x, y, z int) int {
	e := g.block
	b := ((x/e[0])*(g.NY/e[1])+y/e[1])*(g.NZ/e[2]) + z/e[2]
	return (b*e[0]+x%e[0])*e[1]*e[2] + y%e[1]*e[2] + z%e[2]
}

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

// Dist returns the distribution array in storage order.
func (g *Grid) Dist() [][lattice.Q]float64 { return g.dist }

// Macros returns every node's record in storage order.
func (g *Grid) Macros() []Macro { return g.macro }

// Record returns the present distributions and the record of node i in
// x-major order, i = (x*NY + y)*NZ + z, whatever the block extent.
func (g *Grid) Record(i int) (*[lattice.Q]float64, Macro) {
	j := g.Idx(i/(g.NY*g.NZ), i/g.NZ%g.NY, i%g.NZ)
	return &g.dist[j], g.macro[j]
}

// BlockBox returns the fluid coordinates of block b's first node and the
// block extent: on the slab grid, x-plane b is the 1×NY×NZ box at
// (b, 0, 0).
func (g *Grid) BlockBox(b int) (origin, extent [3]int) {
	e := g.block
	by, bz := g.NY/e[1], g.NZ/e[2]
	return [3]int{b / (by * bz) * e[0], b / bz % by * e[1], b % bz * e[2]}, e
}

// BlockExtent returns the extent of one block.
func (g *Grid) BlockExtent() [3]int { return g.block }

// Blocks returns the number of blocks along each axis.
func (g *Grid) Blocks() [3]int {
	return [3]int{g.NX / g.block[0], g.NY / g.block[1], g.NZ / g.block[2]}
}

// NumBlocks returns the number of blocks.
func (g *Grid) NumBlocks() int {
	n := g.Blocks()
	return n[0] * n[1] * n[2]
}

// CopyFrom copies every node's distributions and record from src, a grid
// of the same dimensions in any block extent.
func (g *Grid) CopyFrom(src *Grid) error {
	if src.NX != g.NX || src.NY != g.NY || src.NZ != g.NZ {
		return fmt.Errorf("grid: copying a %d×%d×%d grid into a %d×%d×%d one",
			src.NX, src.NY, src.NZ, g.NX, g.NY, g.NZ)
	}
	to, from := AxisIndex(g), AxisIndex(src)
	for x := range to[0] {
		for y := range to[1] {
			for z := range to[2] {
				i, j := to[0][x]+to[1][y]+to[2][z], from[0][x]+from[1][y]+from[2][z]
				g.dist[i], g.macro[i] = src.dist[j], src.macro[j]
			}
		}
	}
	return nil
}

// TotalMass returns Σ_nodes Σ_i g_i over the distributions, summed node
// by node in storage order, so grids of two block extents can differ in
// the last bits. The BGK collision and periodic streaming conserve it
// exactly (up to floating-point rounding), which the test suite exploits
// as an invariant.
func (g *Grid) TotalMass() float64 {
	sum := 0.0
	for i := range g.dist {
		for _, v := range &g.dist[i] {
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
// sound ≈ 0.577 for the simulation to be valid). A maximum is
// order-independent, so every block extent reports the same bits.
func (g *Grid) MaxVelocity() float64 {
	max := 0.0
	for i := range g.macro {
		if m2 := speed2(g.macro[i].Vel); m2 > max {
			max = m2
		}
	}
	return math.Sqrt(max)
}

func speed2(v [3]float64) float64 { return v[0]*v[0] + v[1]*v[1] + v[2]*v[2] }

// Clone returns a deep copy of the grid, used by the validation harness to
// snapshot states for cross-solver comparison.
func (g *Grid) Clone() *Grid {
	c := &Grid{NX: g.NX, NY: g.NY, NZ: g.NZ, block: g.block,
		dist:  append([][lattice.Q]float64(nil), g.dist...),
		macro: append([]Macro(nil), g.macro...),
	}
	c.Coupling = newCoupling(c)
	return c
}
