package lattice

import "lbmib/internal/cpu"

// Lanes is the number of nodes one call of CollideGroup collides: on an
// AVX2 host, one node per lane of a 4-wide vector.
const Lanes = 4

// Record is a node's macroscopic record: the velocity u and density ρ a
// collision relaxes towards and the force density it adds. grid.Macro is
// this type. The vector body addresses it by byte offset: 56 bytes, Vel
// at 0, Rho at 24, Force at 32 (TestGroupLayout).
type Record struct {
	Vel   [3]float64 // macroscopic velocity u
	Rho   float64    // macroscopic density ρ
	Force [3]float64 // elastic force density from the structure
}

// State is the density and velocity a node collided with, which its
// wall reflections take and a sampled sweep digests: 32 bytes, U at 0,
// Rho at 24.
type State struct {
	U   [3]float64
	Rho float64
}

// CollideGroup is kernel 5 on the nodes g, at most Lanes of them, in
// place: node k collides as FoldCollide(&g[k], *fold, force, tau, ·)
// with a non-nil fold and as Collide(&g[k], r[k].Rho, r[k].Vel, force,
// tau) without, force being *force if it is non-nil and r[k].Force
// otherwise; with fold and force both non-nil r is not read. With trade
// each collided value q is stored at slot Opposite[q] of its node, the
// natural in-place step's exchange of every opposite pair
// (core.AABlock). A non-nil out receives in out[k] the density and
// velocity node k collided with, the record's or the fold's; its
// entries from len(g) on may be overwritten. The bits are those of the
// single-node calls whichever body runs (a NaN is some NaN); on an AVX2
// host the vector body collides the group in one pass, one node per
// lane.
func CollideGroup(g [][Q]float64, r []Record, fold, force *[3]float64, tau float64, trade bool, out *[Lanes]State) {
	n := len(g)
	if n == 0 {
		return
	}
	if n > Lanes {
		panic("lattice: CollideGroup of more than Lanes nodes")
	}
	var rec *Record
	if fold == nil || force == nil {
		r = r[:n]
		rec = &r[0]
	}
	if cpu.Vector() {
		collideAVX2(&g[0], rec, n, fold, force, tau, trade, out)
		return
	}
	collideGroup(g, r, fold, force, tau, trade, out)
}

// collideGroup is CollideGroup in Go: the portable path and the vector
// body's oracle.
func collideGroup(g [][Q]float64, r []Record, fold, force *[3]float64, tau float64, trade bool, out *[Lanes]State) {
	for k := range g {
		var s State
		f := force
		if f == nil {
			f = &r[k].Force
		}
		if fold != nil {
			s.Rho = FoldCollide(&g[k], *fold, *f, tau, &s.U)
		} else {
			s = State{U: r[k].Vel, Rho: r[k].Rho}
			Collide(&g[k], s.Rho, s.U, *f, tau)
		}
		if trade {
			h := &g[k]
			h[1], h[2] = h[2], h[1]
			h[3], h[4] = h[4], h[3]
			h[5], h[6] = h[6], h[5]
			h[7], h[8] = h[8], h[7]
			h[9], h[10] = h[10], h[9]
			h[11], h[12] = h[12], h[11]
			h[13], h[14] = h[14], h[13]
			h[15], h[16] = h[16], h[15]
			h[17], h[18] = h[18], h[17]
		}
		if out != nil {
			out[k] = s
		}
	}
}
