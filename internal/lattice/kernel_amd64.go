package lattice

// collideAVX2 is the vector body of kernel_amd64.s, which CollideGroup
// runs where cpu.Vector reports AVX2: collideGroup on the 1 ≤ n ≤ Lanes
// nodes from f through the tables of grp, one node per lane, with
// uniform true only if n is Lanes and every lane shares lane 0's
// tables. r is the first of n consecutive records, not read when fold
// and force are both non-nil; a nil out is not written, and a non-nil one gets all
// Lanes entries. The tables of lanes n and up are not read, and no lane
// from n on is stored.
//
//go:noescape
func collideAVX2(f *float64, grp *Group, n int, uniform bool, r *Record, fold, force *[3]float64, tau float64, out *[Lanes]State)

// momentsAVX2 is the moments body of kernel_amd64.s, which MomentsGroup
// runs where cpu.Vector reports AVX2: momentsGroup on the 1 ≤ n ≤ Lanes
// nodes from f through the load tables of grp, one node per lane, with
// uniform true only if n is Lanes and every lane shares lane 0's load
// table. r is the first of n consecutive records. The tables of lanes n
// and up are not read, and no record from n on is read or written.
//
//go:noescape
func momentsAVX2(f *float64, grp *Group, n int, uniform bool, r *Record, reset *[3]float64)
