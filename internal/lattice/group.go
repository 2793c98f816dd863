package lattice

import "lbmib/internal/cpu"

// Lanes is the number of nodes one call of CollideGroup or MomentsGroup
// takes: on an AVX2 host, one node per lane of a 4-wide vector.
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

// Offsets is one node's slot table in a direction-major population array
// — the array that holds value q of the node at entry e at q·S + e, S
// its stride (grid.Grid.Stride): entry q is where the node's value q
// lies, or goes, counted in float64 from the node's own entry e.
type Offsets [Q]int

// Natural returns the table of a node's own slots in an array of stride
// s: value q at q·s.
func Natural(s int) (t Offsets) {
	for q := range t {
		t[q] = q * s
	}
	return t
}

// Traded returns the table that stores each value at its opposite's
// slot, q at Opposite[q]·s: the natural in-place step's exchange of every
// opposite pair (core.AABlock).
func Traded(s int) (t Offsets) {
	for q := range t {
		t[q] = Opposite[q] * s
	}
	return t
}

// Group is where the nodes of one CollideGroup call read and write: lane
// k, the node at entry i+k, loads its value q from entry i+k+Load[k][q]
// of the array and stores its collided value q to i+k+Store[k][q]. A
// group whose four lanes share one load and one store table reads and
// writes each direction of its four nodes as one vector; any other group
// goes lane by lane. MomentsGroup reads through the load tables alone.
type Group struct {
	Load, Store [Lanes]*Offsets
}

// Uniform returns the group whose every lane loads through load and
// stores through store.
func Uniform(load, store *Offsets) Group {
	return Group{Load: [Lanes]*Offsets{load, load, load, load}, Store: [Lanes]*Offsets{store, store, store, store}}
}

// uniform reports whether every lane of the group shares lane 0's tables.
func (g *Group) uniform() bool { return shared(&g.Load) && shared(&g.Store) }

// shared reports whether the four lanes' tables are lane 0's.
func shared(t *[Lanes]*Offsets) bool { return t[0] == t[1] && t[0] == t[2] && t[0] == t[3] }

// CollideGroup is kernel 5 on the n ≤ Lanes nodes at entries i … i+n−1
// of the direction-major array f, through the slots of grp: node k loads
// its 19 values through grp.Load[k], collides as FoldCollide(·, *fold,
// force, tau, ·) with a non-nil fold and as Collide(·, r[k].Rho,
// r[k].Vel, force, tau) without, force being *force if it is non-nil and
// r[k].Force otherwise, and stores its 19 values through grp.Store[k];
// with fold and force both non-nil r is not read. A non-nil out receives
// in out[k] the density and velocity node k collided with, the record's
// or the fold's; its entries from n on may be overwritten.
//
// The slots must lie in f, and no two nodes of the group may share a
// slot: what one node stores, no other node of the group loads or
// stores. Then the order of the loads and stores is immaterial, and the
// bits are those of the single-node calls whichever body runs (a NaN is
// some NaN). On an AVX2 host every group runs the vector body, one node
// per lane; a shorter group — a row's tail — goes lane by lane there,
// its tables from lane n on unread, and stores only its own nodes.
// Elsewhere the Go twin runs, which reads through the same tables.
func CollideGroup(f []float64, i, n int, grp *Group, r []Record, fold, force *[3]float64, tau float64, out *[Lanes]State) {
	if n == 0 {
		return
	}
	if n > Lanes {
		panic("lattice: CollideGroup of more than Lanes nodes")
	}
	if fold == nil || force == nil {
		r = r[:n]
	}
	if !cpu.Vector() {
		collideGroup(f, i, n, grp, r, fold, force, tau, out)
		return
	}
	_ = f[i+n-1]
	var rec *Record
	if fold == nil || force == nil {
		rec = &r[0]
	}
	collideAVX2(&f[i], grp, n, n == Lanes && grp.uniform(), rec, fold, force, tau, out)
}

// MomentsGroup is kernel 7 on the n ≤ Lanes nodes at entries i … i+n−1
// of the direction-major array f, through grp's load tables: node k
// loads its 19 values through grp.Load[k] and takes their density and
// velocity under its record's force, r[k].Rho = Moments(·, r[k].Force,
// &r[k].Vel); then, with a non-nil reset, r[k].Force = *reset. grp's
// store tables are not read, and neither are its load tables from lane
// n on; nothing but the n records is written.
//
// The slots must lie in f. The bits are Moments' on each node whichever
// body runs (a NaN is some NaN): on an AVX2 host the vector body, one
// node per lane, each direction of the four nodes one vector when they
// share a load table and a slot per lane otherwise, a short group lane
// by lane; elsewhere the Go twin, which reads through the same tables.
func MomentsGroup(f []float64, i, n int, grp *Group, r []Record, reset *[3]float64) {
	if n == 0 {
		return
	}
	if n > Lanes {
		panic("lattice: MomentsGroup of more than Lanes nodes")
	}
	r = r[:n]
	if !cpu.Vector() {
		momentsGroup(f, i, n, grp, r, reset)
		return
	}
	_ = f[i+n-1]
	momentsAVX2(&f[i], grp, n, n == Lanes && shared(&grp.Load), &r[0], reset)
}

// collideGroup is CollideGroup in Go: the portable path and the vector
// body's oracle.
func collideGroup(f []float64, i, n int, grp *Group, r []Record, fold, force *[3]float64, tau float64, out *[Lanes]State) {
	collide := func(g *[Q]float64, k int) {
		var s State
		fk := force
		if fk == nil {
			fk = &r[k].Force
		}
		if fold != nil {
			s.Rho = FoldCollide(g, *fold, *fk, tau, &s.U)
		} else {
			s = State{U: r[k].Vel, Rho: r[k].Rho}
			Collide(g, s.Rho, s.U, *fk, tau)
		}
		if out != nil {
			out[k] = s
		}
	}
	if n == Lanes && grp.uniform() {
		var g [Lanes][Q]float64
		gather(f, i, grp.Load[0], &g)
		for k := range g {
			collide(&g[k], k)
		}
		scatter(f, i, grp.Store[0], &g)
		return
	}
	for k := range n {
		var g [Q]float64
		for q, o := range grp.Load[k] {
			g[q] = f[i+k+o]
		}
		collide(&g, k)
		for q, o := range grp.Store[k] {
			f[i+k+o] = g[q]
		}
	}
}

// momentsGroup is MomentsGroup in Go: the portable path and the vector
// body's oracle.
func momentsGroup(f []float64, i, n int, grp *Group, r []Record, reset *[3]float64) {
	moments := func(g *[Q]float64, rec *Record) {
		rec.Rho = Moments(g, rec.Force, &rec.Vel)
		if reset != nil {
			rec.Force = *reset
		}
	}
	if n == Lanes && shared(&grp.Load) {
		var g [Lanes][Q]float64
		gather(f, i, grp.Load[0], &g)
		for k := range g {
			moments(&g[k], &r[k])
		}
		return
	}
	for k := range n {
		var g [Q]float64
		for q, o := range grp.Load[k] {
			g[q] = f[i+k+o]
		}
		moments(&g, &r[k])
	}
}

// gather loads the values of four consecutive nodes from entry i on
// through the one table t into g, direction by direction: each
// direction's four values, on one or two cache lines, as one array
// whose bounds are checked once.
func gather(f []float64, i int, t *Offsets, g *[Lanes][Q]float64) {
	for q, o := range t {
		v := *(*[Lanes]float64)(f[i+o:])
		g[0][q], g[1][q], g[2][q], g[3][q] = v[0], v[1], v[2], v[3]
	}
}

// scatter stores g through the one table t: gather's inverse.
func scatter(f []float64, i int, t *Offsets, g *[Lanes][Q]float64) {
	for q, o := range t {
		*(*[Lanes]float64)(f[i+o:]) = [Lanes]float64{g[0][q], g[1][q], g[2][q], g[3][q]}
	}
}
