// Package cube implements the data-centric fluid storage of the paper's
// cube-based algorithm (Section V): the Nx×Ny×Nz fluid grid is divided
// into (Nx/k)×(Ny/k)×(Nz/k) cubes of k×k×k fluid nodes, and each cube's
// nodes are stored in one contiguous memory block. The much smaller
// working set per cube is what gives the cube-centric solver its locality
// advantage over the slab layout of internal/grid.
package cube

import (
	"fmt"

	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// Layout is the cube-tiled fluid grid, stored split like grid.Grid: one
// distribution array and one array of grid.Macro records, 208 B per
// node, both cube-major — cube (cx, cy, cz) occupies the K³
// entries starting at CubeIndex(cx,cy,cz)*K³, ordered z-fastest within
// the cube. In the block-layout contract the solvers share (core.Layout)
// its blocks are the cubes.
type Layout struct {
	K          int // cube edge length (nodes)
	NX, NY, NZ int // fluid grid dimensions
	CX, CY, CZ int // cube-grid dimensions (NX/K, NY/K, NZ/K)
	// Coupling makes the layout an ibm.ForceAccumulator and VelocitySampler.
	*grid.Coupling

	// dist holds each node's 19 distribution values, streamed in place
	// by the cube solver (core.AABlock), as in grid.Grid.
	dist  [][lattice.Q]float64
	macro []grid.Macro
}

// NewLayout tiles an nx×ny×nz grid into cubes of edge k. Every dimension
// must be a positive multiple of k.
func NewLayout(nx, ny, nz, k int) (*Layout, error) {
	if k < 1 {
		return nil, fmt.Errorf("cube: non-positive cube size %d", k)
	}
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("cube: non-positive dimensions %d×%d×%d", nx, ny, nz)
	}
	if nx%k != 0 || ny%k != 0 || nz%k != 0 {
		return nil, fmt.Errorf("cube: dimensions %d×%d×%d not divisible by cube size %d", nx, ny, nz, k)
	}
	n := nx * ny * nz
	l := &Layout{
		K: k, NX: nx, NY: ny, NZ: nz,
		CX: nx / k, CY: ny / k, CZ: nz / k,
		dist:  make([][lattice.Q]float64, n),
		macro: make([]grid.Macro, n),
	}
	l.Coupling = grid.NewCoupling(l.macro, l)
	l.Reset(1, [3]float64{})
	return l, nil
}

// Reset reinitializes every node to density rho and velocity u at
// equilibrium, with zero force.
func (l *Layout) Reset(rho float64, u [3]float64) { grid.Reset(l.dist, l.macro, rho, u) }

// NumCubes returns the number of cubes.
func (l *Layout) NumCubes() int { return l.CX * l.CY * l.CZ }

// NumNodes returns the number of fluid nodes.
func (l *Layout) NumNodes() int { return len(l.macro) }

// Dims returns the fluid grid dimensions.
func (l *Layout) Dims() (nx, ny, nz int) { return l.NX, l.NY, l.NZ }

// Dist returns the distribution array in layout order. Cube c occupies
// entries [c·K³, (c+1)·K³).
func (l *Layout) Dist() [][lattice.Q]float64 { return l.dist }

// Macros returns every node's record in layout order.
func (l *Layout) Macros() []grid.Macro { return l.macro }

// BlockBox returns the fluid coordinates of cube c's first node and the
// cube's extent.
func (l *Layout) BlockBox(c int) (origin, extent [3]int) {
	cx, cy, cz := l.CubeCoord(c)
	return [3]int{cx * l.K, cy * l.K, cz * l.K}, [3]int{l.K, l.K, l.K}
}

// CubeIndex returns the linear index of cube (cx, cy, cz).
func (l *Layout) CubeIndex(cx, cy, cz int) int { return (cx*l.CY+cy)*l.CZ + cz }

// CubeCoord is the inverse of CubeIndex.
func (l *Layout) CubeCoord(c int) (cx, cy, cz int) {
	cz = c % l.CZ
	cy = (c / l.CZ) % l.CY
	cx = c / (l.CZ * l.CY)
	return
}

// CubeOf returns the cube coordinates containing fluid node (x, y, z).
func (l *Layout) CubeOf(x, y, z int) (cx, cy, cz int) {
	return x / l.K, y / l.K, z / l.K
}

// Idx returns the flat node index of fluid node (x, y, z) in the
// cube-major layout. Coordinates must be in range; use Wrap first for
// periodic images.
func (l *Layout) Idx(x, y, z int) int {
	k := l.K
	cx, cy, cz := x/k, y/k, z/k
	lx, ly, lz := x%k, y%k, z%k
	return l.CubeIndex(cx, cy, cz)*k*k*k + (lx*k+ly)*k + lz
}

// At returns the record of fluid node (x, y, z).
func (l *Layout) At(x, y, z int) *grid.Macro { return &l.macro[l.Idx(x, y, z)] }

// Wrap maps possibly out-of-range coordinates onto the periodic domain.
func (l *Layout) Wrap(x, y, z int) (int, int, int) {
	return grid.WrapIndex(x, l.NX), grid.WrapIndex(y, l.NY), grid.WrapIndex(z, l.NZ)
}

// FromGrid copies the full state of a slab-layout grid (same dimensions)
// into the cube layout.
func (l *Layout) FromGrid(g *grid.Grid) error {
	if g.NX != l.NX || g.NY != l.NY || g.NZ != l.NZ {
		return fmt.Errorf("cube: dimension mismatch %d×%d×%d vs %d×%d×%d",
			g.NX, g.NY, g.NZ, l.NX, l.NY, l.NZ)
	}
	df, m := g.Dist(), g.Macros()
	l.eachNode(g, func(gi, li int) { l.dist[li], l.macro[li] = df[gi], m[gi] })
	return nil
}

// ToGrid copies the cube layout's state into a freshly allocated
// slab-layout grid, for tests that compare the cube engines with the slab
// ones and for the benchmark's layout probe. It copies the array as it
// is; a solver presents its natural phase first (cubesolver.Solver.Live).
func (l *Layout) ToGrid() *grid.Grid {
	g := grid.New(l.NX, l.NY, l.NZ)
	df, m := g.Dist(), g.Macros()
	l.eachNode(g, func(gi, li int) { df[gi], m[gi] = l.dist[li], l.macro[li] })
	return g
}

// eachNode calls fn with every fluid node's index in g and in the layout.
func (l *Layout) eachNode(g *grid.Grid, fn func(gi, li int)) {
	for x := 0; x < l.NX; x++ {
		for y := 0; y < l.NY; y++ {
			for z := 0; z < l.NZ; z++ {
				fn(g.Idx(x, y, z), l.Idx(x, y, z))
			}
		}
	}
}

// TotalMass returns the summed distribution mass. The sum runs in cube
// order, so it can differ from ToGrid().TotalMass() in the last bits.
func (l *Layout) TotalMass() float64 { return grid.TotalMass(l.dist) }
