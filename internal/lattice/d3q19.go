// Package lattice defines the D3Q19 lattice Boltzmann model used by the
// LBM-IB solvers: the 19 discrete velocities, their quadrature weights,
// opposite-direction table, the BGK equilibrium distribution, and the Guo
// forcing term that couples the immersed-boundary elastic force into the
// fluid update.
//
// The model follows Section II-B of the LBM-IB paper (Nagar et al., ICPP
// 2015) and the underlying method of Zhu et al. (2011): a particle at a
// lattice node may stay at rest or move along 18 directions (Figure 2 of
// the paper). Lattice units are used throughout: dx = dt = 1, the lattice
// speed of sound satisfies cs² = 1/3.
//
// The model is written down twice. This file states it direction by
// direction: Equilibrium and GuoForce loop over E and fill a 19-array,
// which is what initialisation wants and what the formulas look like on
// paper. kernel.go is what the solvers execute per node per step: Collide
// relaxes a distribution array in place towards the same equilibrium with
// the same forcing, and Moments takes its density and velocity, both
// unrolled over the nine opposite pairs (e, −e) of the velocity set, whose
// equilibrium and forcing share a symmetric part and differ in the sign
// of an antisymmetric one. The loop forms are the oracle the unrolled
// forms are tested against (kernel_test.go); no solver composes a
// collision out of them.
package lattice

// Q is the number of discrete velocities in the D3Q19 model (1 rest + 18
// moving directions).
const Q = 19

// CS2 is the squared lattice speed of sound, cs² = 1/3, in lattice units.
const CS2 = 1.0 / 3.0

// E holds the 19 discrete velocity vectors e_i. Index 0 is the rest
// particle; 1..6 are the face neighbors (speed 1); 7..18 are the edge
// neighbors (speed √2). The ordering is fixed and shared by every solver so
// distribution buffers are layout-compatible.
var E = [Q][3]int{
	{0, 0, 0},
	{1, 0, 0}, {-1, 0, 0},
	{0, 1, 0}, {0, -1, 0},
	{0, 0, 1}, {0, 0, -1},
	{1, 1, 0}, {-1, -1, 0}, {1, -1, 0}, {-1, 1, 0},
	{1, 0, 1}, {-1, 0, -1}, {1, 0, -1}, {-1, 0, 1},
	{0, 1, 1}, {0, -1, -1}, {0, 1, -1}, {0, -1, 1},
}

// The three distinct quadrature weights of the D3Q19 model: rest particle,
// face directions, edge directions.
const (
	w0 = 1.0 / 3.0
	w1 = 1.0 / 18.0
	w2 = 1.0 / 36.0
)

// W holds the quadrature weights w_i of the D3Q19 model: 1/3 for the rest
// particle, 1/18 for the six face directions, and 1/36 for the twelve edge
// directions. They sum to exactly 1.
var W = [Q]float64{
	w0,
	w1, w1, w1, w1, w1, w1,
	w2, w2, w2, w2,
	w2, w2, w2, w2,
	w2, w2, w2, w2,
}

// Opposite maps each direction i to the direction j with e_j = -e_i. It is
// used by bounce-back boundary conditions.
var Opposite = [Q]int{0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17}

// Equilibrium computes the BGK equilibrium distribution g_i^eq for density
// rho and velocity u:
//
//	g_i^eq = w_i * rho * (1 + 3 e_i·u + 4.5 (e_i·u)² − 1.5 u²)
//
// The result is written into geq to avoid per-call allocation in the inner
// solver loops.
func Equilibrium(rho float64, u [3]float64, geq *[Q]float64) {
	usq := u[0]*u[0] + u[1]*u[1] + u[2]*u[2]
	for i := 0; i < Q; i++ {
		eu := float64(E[i][0])*u[0] + float64(E[i][1])*u[1] + float64(E[i][2])*u[2]
		geq[i] = W[i] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*usq)
	}
}

// GuoForce computes the Guo et al. discrete forcing term F_i for body-force
// density f at a node moving with velocity u:
//
//	F_i = w_i (1 − 1/(2τ)) [3 (e_i − u) + 9 (e_i·u) e_i] · f
//
// The result is written into out. The (1 − 1/2τ) prefactor makes the scheme
// second-order accurate when the macroscopic velocity includes the half-step
// force correction (see Moments).
func GuoForce(tau float64, u, f [3]float64, out *[Q]float64) {
	pre := 1 - 1/(2*tau)
	for i := 0; i < Q; i++ {
		ex, ey, ez := float64(E[i][0]), float64(E[i][1]), float64(E[i][2])
		eu := ex*u[0] + ey*u[1] + ez*u[2]
		fx := 3*(ex-u[0]) + 9*eu*ex
		fy := 3*(ey-u[1]) + 9*eu*ey
		fz := 3*(ez-u[2]) + 9*eu*ez
		out[i] = pre * W[i] * (fx*f[0] + fy*f[1] + fz*f[2])
	}
}

// TauFromViscosity converts a kinematic viscosity ν (lattice units) to the
// BGK relaxation time τ = 3ν + 1/2.
func TauFromViscosity(nu float64) float64 { return 3*nu + 0.5 }

// ViscosityFromTau is the inverse of TauFromViscosity: ν = (τ − 1/2)/3.
func ViscosityFromTau(tau float64) float64 { return (tau - 0.5) / 3 }
