package cube

import "lbmib/internal/grid"

// Digest fills d from the layout in one cube-major pass over the
// distribution array, read in place, and the records, on the calling
// goroutine (grid.DigestGrid.Fill), without materializing a slab grid
// (unlike ToGrid, which copies every node). d's tiles must be the
// layout's cubes (d.K == l.K); any other tile size is an error. An
// engine splits the same pass over its workers with d.Begin.
func (l *Layout) Digest(d *grid.DigestGrid) error { return d.Fill(l) }
