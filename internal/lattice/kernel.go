package lattice

// This file is the node kernel every engine executes: the BGK collision
// with Guo forcing (Collide) and the macroscopic moments (Moments),
// unrolled over the nine opposite pairs of the velocity set with no loop
// over E and no index the compiler has to bounds-check (scripts/verify.sh
// gates that). Equilibrium and GuoForce in d3q19.go are the same formulas
// written down direction by direction; the tests hold this file to them.
// On an AVX2 host, CollideGroup (group.go) runs the vector body of
// kernel_amd64.s instead, which computes this file's expression trees
// for four nodes at once, one node per lane; the tests hold it to
// Collide and FoldCollide bit for bit.

// pairTerms splits the equilibrium and the Guo term of an opposite pair
// (e, −e) into the parts the two directions share and the parts that
// differ only in sign. With eu = e·u, ef = e·f, c = 1 − 1.5u², uf3 = 3u·f,
// r = ρw and p = (1 − 1/2τ)w:
//
//	g^eq(±e) = se ± ae,  se = r (c + 4.5 eu²),     ae = 3 r eu
//	F(±e)    = sf ± af,  sf = p (9 eu ef − uf3),   af = 3 p ef
func pairTerms(eu, ef, c, uf3, r, p float64) (se, ae, sf, af float64) {
	se = r * (c + 4.5*eu*eu)
	ae = 3 * r * eu
	sf = p * (9*eu*ef - uf3)
	af = 3 * p * ef
	return
}

// Collide is the node update of kernel 5: the BGK relaxation of g towards
// Equilibrium(rho, u) with relaxation time tau plus GuoForce(tau, u, f),
//
//	g_i ← g_i − (g_i − g_i^eq)/τ + F_i,
//
// applied in place in one pass. The nine opposite pairs go through
// pairTerms, where e·u and e·f are a component or the sum or difference
// of two; the relaxation stays in the form g + (g^eq − g)/τ so that 1/τ
// scales the small non-equilibrium part, not two large terms that then
// cancel, and so that the rest state is a fixed point bit for bit.
//
// Collide is also the oracle of the vector body (kernel_amd64.s), which
// runs this expression tree in each lane for a pass over many nodes
// (CollideGroup): its result does not depend on which body ran — save
// which NaN a NaN result is, which x86 takes from the order of a
// commutative operation's operands, and the Go compiler leaves that
// order to register allocation.
func Collide(g *[Q]float64, rho float64, u, f [3]float64, tau float64) {
	inv := 1 / tau
	pre := 1 - 0.5*inv
	ux, uy, uz := u[0], u[1], u[2]
	fx, fy, fz := f[0], f[1], f[2]
	c := 1 - 1.5*(ux*ux+uy*uy+uz*uz)
	uf3 := 3 * (ux*fx + uy*fy + uz*fz)
	r1, r2 := rho*w1, rho*w2
	p1, p2 := pre*w1, pre*w2

	g[0] = relax(g[0], inv, rho*w0*c, -pre*w0*uf3)

	se, ae, sf, af := pairTerms(ux, fx, c, uf3, r1, p1)
	g[1] = relax(g[1], inv, se+ae, sf+af)
	g[2] = relax(g[2], inv, se-ae, sf-af)
	se, ae, sf, af = pairTerms(uy, fy, c, uf3, r1, p1)
	g[3] = relax(g[3], inv, se+ae, sf+af)
	g[4] = relax(g[4], inv, se-ae, sf-af)
	se, ae, sf, af = pairTerms(uz, fz, c, uf3, r1, p1)
	g[5] = relax(g[5], inv, se+ae, sf+af)
	g[6] = relax(g[6], inv, se-ae, sf-af)

	se, ae, sf, af = pairTerms(ux+uy, fx+fy, c, uf3, r2, p2)
	g[7] = relax(g[7], inv, se+ae, sf+af)
	g[8] = relax(g[8], inv, se-ae, sf-af)
	se, ae, sf, af = pairTerms(ux-uy, fx-fy, c, uf3, r2, p2)
	g[9] = relax(g[9], inv, se+ae, sf+af)
	g[10] = relax(g[10], inv, se-ae, sf-af)
	se, ae, sf, af = pairTerms(ux+uz, fx+fz, c, uf3, r2, p2)
	g[11] = relax(g[11], inv, se+ae, sf+af)
	g[12] = relax(g[12], inv, se-ae, sf-af)
	se, ae, sf, af = pairTerms(ux-uz, fx-fz, c, uf3, r2, p2)
	g[13] = relax(g[13], inv, se+ae, sf+af)
	g[14] = relax(g[14], inv, se-ae, sf-af)
	se, ae, sf, af = pairTerms(uy+uz, fy+fz, c, uf3, r2, p2)
	g[15] = relax(g[15], inv, se+ae, sf+af)
	g[16] = relax(g[16], inv, se-ae, sf-af)
	se, ae, sf, af = pairTerms(uy-uz, fy-fz, c, uf3, r2, p2)
	g[17] = relax(g[17], inv, se+ae, sf+af)
	g[18] = relax(g[18], inv, se-ae, sf-af)
}

// FoldCollide is Moments of g under the force fold followed by Collide
// with that density and velocity and the force f, in one call: the
// moments of the previous step folded into this step's collision
// (core.AABlock). It returns the density and writes the velocity into u,
// as Moments does: the state's moments, which a sampled sweep digests.
// The vector body forms the same moments from the pair sums and
// differences of the values it loaded for the collision.
func FoldCollide(g *[Q]float64, fold, f [3]float64, tau float64, u *[3]float64) (rho float64) {
	rho = Moments(g, fold, u)
	Collide(g, rho, *u, f, tau)
	return rho
}

// relax is one direction of Collide, g + ((eq − g)·inv + src) with eq
// the equilibrium, inv = 1/τ and src the Guo term.
func relax(g, inv, eq, src float64) float64 {
	return g + (inv*(eq-g) + src)
}

// Moments computes the macroscopic density and velocity from a distribution
// g, including the half-step Guo force correction:
//
//	rho = Σ g_i
//	rho·u = Σ e_i g_i + f/2
//
// It returns rho and writes the velocity into u. The sums run over the
// opposite pairs of Collide: a pair adds its sum to the density and its
// difference, signed by the pair's first direction, to the momentum. A
// zero-density node (which cannot occur in a well-posed simulation) yields
// zero velocity rather than NaN so that diagnostics stay finite.
func Moments(g *[Q]float64, f [3]float64, u *[3]float64) (rho float64) {
	sx, dx := sumDiff(g[1], g[2])
	sy, dy := sumDiff(g[3], g[4])
	sz, dz := sumDiff(g[5], g[6])
	sxy, dxy := sumDiff(g[7], g[8])
	sxny, dxny := sumDiff(g[9], g[10])
	sxz, dxz := sumDiff(g[11], g[12])
	sxnz, dxnz := sumDiff(g[13], g[14])
	syz, dyz := sumDiff(g[15], g[16])
	synz, dynz := sumDiff(g[17], g[18])
	rho = g[0] + (sx + sy + sz) + (sxy + sxny) + (sxz + sxnz) + (syz + synz)
	if rho == 0 { // only exact zero density divides by zero below
		*u = [3]float64{}
		return 0
	}
	inv := 1 / rho
	u[0] = (dx + (dxy + dxny) + (dxz + dxnz) + 0.5*f[0]) * inv
	u[1] = (dy + (dxy - dxny) + (dyz + dynz) + 0.5*f[1]) * inv
	u[2] = (dz + (dxz - dxnz) + (dyz - dynz) + 0.5*f[2]) * inv
	return rho
}

// sumDiff returns a + b and a − b of an opposite pair's populations.
func sumDiff(a, b float64) (sum, diff float64) {
	return a + b, a - b
}
