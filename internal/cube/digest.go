package cube

import (
	"fmt"

	"lbmib/internal/grid"
)

// Digest fills d from the layout in one cube-major pass over the
// distribution array, read in place, and the records, without
// materializing a slab grid (unlike ToGrid, which copies every node). d's tiles must be the
// layout's cubes (d.K == l.K); any other tile size is an error.
func (l *Layout) Digest(d *grid.DigestGrid) error {
	if d.NX != l.NX || d.NY != l.NY || d.NZ != l.NZ {
		return fmt.Errorf("cube: digest shaped %d×%d×%d, layout %d×%d×%d",
			d.NX, d.NY, d.NZ, l.NX, l.NY, l.NZ)
	}
	return d.DigestCubeMajor(l.dist, l.macro, l.K)
}
