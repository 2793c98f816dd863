package lattice

// The vector bodies of kernel_amd64.s; Collide and FoldCollide run them
// where cpu.Vector reports AVX2.

// collideAVX2 is collide, the nine opposite pairs in
// the lanes of two 4-wide vectors and one 2-wide one.
//
//go:noescape
func collideAVX2(d *[Q]float64, rho, ux, uy, uz, fx, fy, fz, tau float64)

// foldCollideAVX2 is foldCollide; hx, hy, hz is the
// fold force and fx, fy, fz the collision's.
//
//go:noescape
func foldCollideAVX2(d *[Q]float64, hx, hy, hz, fx, fy, fz, tau float64) (rho, ux, uy, uz float64)
