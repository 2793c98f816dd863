// Package cube keeps the names the benchmark harness compiles against
// for the paper's cube layout (Section V). The layout itself is a
// grid.Grid stored in k×k×k blocks (grid.NewBlocked): the slab and the
// cubes are one container whose block extent is a parameter. Nothing
// outside the benchmark imports this package.
package cube

import "lbmib/internal/grid"

// Layout is a grid.Grid stored in cubes of edge k.
type Layout struct{ *grid.Grid }

// NewLayout tiles an nx×ny×nz grid into cubes of edge k. Every dimension
// must be a positive multiple of k.
func NewLayout(nx, ny, nz, k int) (*Layout, error) {
	g, err := grid.NewBlocked(nx, ny, nz, [3]int{k, k, k})
	if err != nil {
		return nil, err
	}
	return &Layout{g}, nil
}

// FromGrid copies the full state of a grid of the same dimensions into
// the layout.
func (l *Layout) FromGrid(g *grid.Grid) error { return l.CopyFrom(g) }

// ToGrid copies the layout's state, its array as it is, into a freshly
// allocated slab grid.
func (l *Layout) ToGrid() *grid.Grid {
	g := grid.New(l.NX, l.NY, l.NZ)
	_ = g.CopyFrom(l.Grid) // same dimensions: cannot fail
	return g
}
