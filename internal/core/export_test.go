package core

import "lbmib/internal/lattice"

// Links returns what the bodies stream node (x, y, z) by: its wall set,
// and the entry offsets of its neighbours at sign·e_q.
func (s *Streamer) Links(x, y, z, sign int) (walls uint32, d [lattice.Q]int) {
	r := s.row(x, y, sign)
	return r.walls | s.walls[2][z], *s.links(&r, z)
}

// Classes returns the number of coordinate classes on each axis.
func (s *Streamer) Classes() (n [3]int) {
	for a, cls := range s.cls {
		seen := map[int]bool{}
		for _, c := range cls {
			seen[c] = true
		}
		n[a] = len(seen)
	}
	return n
}

// Canonicalize is CanonicalizeBlocks over every block: the whole array,
// on one goroutine.
func Canonicalize(s *Streamer, df [][lattice.Q]float64) {
	CanonicalizeBlocks(s, df, 0, s.l.NumBlocks())
}
