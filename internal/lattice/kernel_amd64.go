package lattice

// collideAVX2 is the vector body of kernel_amd64.s, which CollideGroup
// runs where cpu.Vector reports AVX2:
// collideGroup on the n nodes from d and their records from r, one node
// per lane. r is not read when fold and force are both non-nil; a nil
// out is not written.
//
//go:noescape
func collideAVX2(d *[Q]float64, r *Record, n int, fold, force *[3]float64, tau float64, trade bool, out *[Lanes]State)
