//go:build !amd64

package lattice

// Without a vector body the Go kernel is the only path. The twins below
// keep kernel.go's calls to the amd64 bodies compiling; cpu.Vector is
// false, so they never run.

func collideAVX2(g *[Q]float64, rho, ux, uy, uz, fx, fy, fz, tau float64) {
	collide(g, rho, [3]float64{ux, uy, uz}, [3]float64{fx, fy, fz}, tau)
}

func foldCollideAVX2(g *[Q]float64, hx, hy, hz, fx, fy, fz, tau float64) (rho, ux, uy, uz float64) {
	var u [3]float64
	rho = foldCollide(g, [3]float64{hx, hy, hz}, [3]float64{fx, fy, fz}, tau, &u)
	return rho, u[0], u[1], u[2]
}
