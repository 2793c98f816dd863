package lattice

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"lbmib/internal/cpu"
)

// The tests in this file hold the unrolled node kernel (kernel.go) to the
// formulas written down direction by direction — Equilibrium, GuoForce and
// the loop form of the moments below — and to exact invariants that a
// typo in any one of its eighteen unrolled directions breaks.

// nodeState is one input of the node kernel. The populations are an
// equilibrium perturbed direction by direction, so they carry a
// non-equilibrium part and their own moments differ from rho and u.
type nodeState struct {
	g    [Q]float64
	rho  float64
	u, f [3]float64
	tau  float64
}

var kernelTaus = [...]float64{0.51, 0.7, 1, 2}

// randomState draws rho from [0.5, 1.5], u uniformly in direction with
// |u| ≤ 0.3, a force that is exactly zero for a quarter of the states and
// has one exactly-zero component for another quarter, tau from
// kernelTaus, and populations up to 10 % off the equilibrium.
func randomState(r *rand.Rand) nodeState {
	var s nodeState
	s.rho = 0.5 + r.Float64()
	s.tau = kernelTaus[r.Intn(len(kernelTaus))]
	mag := 0.3 * r.Float64()
	var norm float64
	for d := range s.u {
		s.u[d] = r.NormFloat64()
		norm += s.u[d] * s.u[d]
	}
	for d := range s.u {
		s.u[d] *= mag / math.Sqrt(norm)
	}
	if kind := r.Intn(4); kind != 0 {
		for d := range s.f {
			s.f[d] = 1e-2 * (2*r.Float64() - 1)
		}
		if kind == 1 {
			s.f[r.Intn(3)] = 0
		}
	}
	Equilibrium(s.rho, s.u, &s.g)
	for i := range s.g {
		s.g[i] *= 1 + 0.1*(2*r.Float64()-1)
	}
	return s
}

func (s nodeState) collided() [Q]float64 {
	g := s.g
	Collide(&g, s.rho, s.u, s.f, s.tau)
	return g
}

const kernelStates = 120000

// Collide equals the textbook composition of the two oracle functions,
// g − (g − g^eq)/τ + F, to 4·10⁻¹⁵·w_i in every direction.
func TestCollideMatchesFormula(t *testing.T) {
	t.Run("float64", collideMatchesFormula)
}

func collideMatchesFormula(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	worst := 0.0
	for n := 0; n < kernelStates; n++ {
		s := randomState(r)
		got := s.collided()
		var geq, F [Q]float64
		Equilibrium(s.rho, s.u, &geq)
		GuoForce(s.tau, s.u, s.f, &F)
		for i := 0; i < Q; i++ {
			want := s.g[i] - (s.g[i]-geq[i])/s.tau + F[i]
			d := math.Abs(got[i]-want) / W[i]
			if bound := 4e-15; d > bound {
				t.Fatalf("state %d direction %d: kernel %.17g, formula %.17g (|Δ|/w = %.3g > %.3g)\n%+v", n, i, got[i], want, d, bound, s)
			}
			worst = math.Max(worst, d)
		}
	}
	t.Logf("max |kernel − formula| / w_i over %d states: %.3g", kernelStates, worst)
}

// momentsLoop is the moments written as the sum over E it is defined by:
// the form lattice.Moments had before it was unrolled, kept as its oracle.
func momentsLoop(g *[Q]float64, f [3]float64, u *[3]float64) (rho float64) {
	var mx, my, mz float64
	for i := 0; i < Q; i++ {
		gi := g[i]
		rho += gi
		mx += gi * float64(E[i][0])
		my += gi * float64(E[i][1])
		mz += gi * float64(E[i][2])
	}
	if rho == 0 {
		*u = [3]float64{}
		return 0
	}
	u[0] = (mx + 0.5*f[0]) / rho
	u[1] = (my + 0.5*f[1]) / rho
	u[2] = (mz + 0.5*f[2]) / rho
	return rho
}

// Moments equals the loop form to 4 ulp of 1 (4·2⁻⁵²) in the density and in
// every velocity component. The unit is that of the O(1) sums both forms
// accumulate, not of the result: the loop form rounds eighteen times at
// the size of its running sum whatever the sum comes to, so a density just
// under 1, or a velocity that is the small difference of populations ten
// times its size, is not the scale of either form's rounding.
func TestMomentsMatchesLoopForm(t *testing.T) {
	t.Run("float64", momentsMatchLoopForm)
}

func momentsMatchLoopForm(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ulp1 := math.Nextafter(1, 2) - 1
	worst := 0.0
	for n := 0; n < kernelStates; n++ {
		s := randomState(r)
		var gotU, wantU [3]float64
		got := [4]float64{0: Moments(&s.g, s.f, &gotU)}
		want := [4]float64{0: momentsLoop(&s.g, s.f, &wantU)}
		copy(got[1:], gotU[:])
		copy(want[1:], wantU[:])
		for k, name := range [4]string{"rho", "u[0]", "u[1]", "u[2]"} {
			d := math.Abs(got[k]-want[k]) / ulp1
			if d > 4 {
				t.Fatalf("state %d: %s %.17g, loop form %.17g (%.1f ulp of 1)", n, name, got[k], want[k], d)
			}
			worst = math.Max(worst, d)
		}
	}
	t.Logf("max difference over %d states: %.2f ulp of 1", kernelStates, worst)
}

// sum adds xs with Neumaier's compensation, so that the invariants below
// measure the kernel's rounding and not the test's.
func sum(xs ...float64) float64 {
	var s, c float64
	for _, x := range xs {
		t := s + x
		if math.Abs(s) >= math.Abs(x) {
			c += (s - t) + x
		} else {
			c += (x - t) + s
		}
		s = t
	}
	return s + c
}

// momentsOf returns Σ g_i and Σ e_i g_i.
func momentsOf(g *[Q]float64) (m0 float64, m1 [3]float64) {
	m0 = sum(g[:]...)
	for d := 0; d < 3; d++ {
		var terms [Q]float64
		for i := 0; i < Q; i++ {
			terms[i] = float64(E[i][d]) * g[i]
		}
		m1[d] = sum(terms[:]...)
	}
	return
}

// The collision's zeroth and first moments are exact statements about all
// nineteen directions at once: it relaxes the populations' mass towards
// rho and their momentum towards rho·u at rate 1/τ and adds (1 − 1/2τ)·f
// of momentum,
//
//	Σ Δg_i     = −(Σ g_i − ρ)/τ
//	Σ e_i Δg_i = (1 − 1/2τ) f − (Σ e_i g_i − ρ u)/τ.
//
// A wrong sign, weight or component in one direction moves these by the
// size of that direction's term, ten orders of magnitude above 1e-15.
func TestCollideMomentInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var worst0, worst1 float64
	for n := 0; n < kernelStates; n++ {
		s := randomState(r)
		if n%2 == 1 {
			// With rho the populations' own sum — what kernel 7 hands
			// kernel 5 — the collision conserves mass.
			s.rho, _ = momentsOf(&s.g)
		}
		after := s.collided()
		var delta [Q]float64
		for i := range delta {
			delta[i] = after[i] - s.g[i]
		}
		m0, m1 := momentsOf(&s.g)
		d0, d1 := momentsOf(&delta)
		e0 := math.Abs(d0 + (m0-s.rho)/s.tau)
		if e0 > 1e-15 {
			t.Fatalf("state %d: Σ Δg = %.17g, want %.17g (|Δ| = %.3g)\n%+v", n, d0, -(m0-s.rho)/s.tau, e0, s)
		}
		worst0 = math.Max(worst0, e0)
		for d := 0; d < 3; d++ {
			want := (1-1/(2*s.tau))*s.f[d] - (m1[d]-s.rho*s.u[d])/s.tau
			e1 := math.Abs(d1[d] - want)
			if e1 > 1e-15 {
				t.Fatalf("state %d: Σ e_%d Δg = %.17g, want %.17g (|Δ| = %.3g)\n%+v", n, d, d1[d], want, e1, s)
			}
			worst1 = math.Max(worst1, e1)
		}
	}
	t.Logf("max residual over %d states: mass %.3g, momentum %.3g", kernelStates, worst0, worst1)
}

// The rest state with no force is a fixed point of the collision bit for
// bit, at every relaxation time: g^eq − g is exactly zero there.
func TestCollideRestStateIsBitwiseFixedPoint(t *testing.T) {
	for _, tau := range kernelTaus {
		for _, rho := range []float64{1, 0.5, 1.3} {
			var g [Q]float64
			Equilibrium(rho, [3]float64{}, &g)
			want := g
			for step := 0; step < 3; step++ {
				Collide(&g, rho, [3]float64{}, [3]float64{}, tau)
			}
			if g != want {
				t.Fatalf("tau %g rho %g: rest state moved\n got %v\nwant %v", tau, rho, g, want)
			}
		}
	}
}

// symmetry is one of the 48 symmetries of the cubic lattice: component d
// of the image of a vector v is sign[d]·v[perm[d]].
type symmetry struct {
	perm [3]int
	sign [3]float64
}

func (m symmetry) vec(v [3]float64) (out [3]float64) {
	for d := range out {
		out[d] = m.sign[d] * v[m.perm[d]]
	}
	return
}

// populations carries g along: the image holds g_i at the direction that
// E[i] maps to.
func (m symmetry) populations(t *testing.T, g [Q]float64) (out [Q]float64) {
	for i := 0; i < Q; i++ {
		var e [3]int
		for d := range e {
			e[d] = int(m.sign[d]) * E[i][m.perm[d]]
		}
		j := 0
		for j < Q && E[j] != e {
			j++
		}
		if j == Q {
			t.Fatalf("image %v of direction %d is not in the velocity set", e, i)
		}
		out[j] = g[i]
	}
	return
}

// Colliding the image of a state gives the image of the collided state,
// for all 48 lattice symmetries. Under the 8 mirror combinations (and
// those composed with the x↔y swap) the agreement is bitwise: negation is
// exact, addition commutes, and a pair whose two directions trade places
// sees its antisymmetric part change sign and nothing else. Under the
// other axis permutations u² and u·f — summed in the fixed order x, y, z
// — may round differently by one ulp, which reaches each population
// scaled by at most its weight; those agree to 2·10⁻¹⁵·w_i.
func TestCollideCommutesWithLatticeSymmetries(t *testing.T) {
	perms := [][3]int{{0, 1, 2}, {1, 0, 2}, {0, 2, 1}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	r := rand.New(rand.NewSource(23))
	states := make([]nodeState, 2000)
	for i := range states {
		states[i] = randomState(r)
	}
	count, worst := 0, 0.0
	for pi, perm := range perms {
		bitwise := pi < 2
		for signs := 0; signs < 8; signs++ {
			m := symmetry{perm: perm}
			for d := range m.sign {
				m.sign[d] = 1 - 2*float64(signs>>d&1)
			}
			count++
			for n, s := range states {
				want := m.populations(t, s.collided())
				img := nodeState{g: m.populations(t, s.g), rho: s.rho, u: m.vec(s.u), f: m.vec(s.f), tau: s.tau}
				got := img.collided()
				if bitwise {
					if got != want {
						t.Fatalf("symmetry %+v, state %d: not bitwise equal\n got %v\nwant %v", m, n, got, want)
					}
					continue
				}
				for i := 0; i < Q; i++ {
					d := math.Abs(got[i]-want[i]) / W[i]
					if d > 2e-15 {
						t.Fatalf("symmetry %+v, state %d, direction %d: %.17g vs %.17g (|Δ|/w = %.3g)", m, n, i, got[i], want[i], d)
					}
					worst = math.Max(worst, d)
				}
			}
		}
	}
	if count != 48 {
		t.Fatalf("%d symmetries enumerated, want 48", count)
	}
	t.Logf("16 symmetries bitwise; the other 32 within %.3g·w_i", worst)
}

// The vector body (kernel_amd64.s) is held to the Go kernel bit for
// bit: every lane runs the Go expression tree operation for operation,
// so no input, however degenerate, may tell the two apart, and no lane
// may see another lane's node. The one exception is which NaN a NaN
// result is. Where two different NaNs meet (an input NaN and the NaN an
// invalid operation such as ∞ − ∞ makes), x86 returns the first
// operand's, and the Go compiler orders the operands of a commutative
// product or sum as register allocation suits it, differently from pair
// to pair and from one compiler release to the next; so a NaN is
// matched by a NaN, and every other value by its bits. The Go kernel is
// itself held to the formulas by the tests above.

// vectorStates is the number of random nodes the vector body is
// compared on, in groups of up to Lanes.
const vectorStates = 1_000_000

func requireVector(t *testing.T) {
	if !cpu.Vector() {
		t.Skip("no vector body on this host")
	}
}

// sameBits reports whether a and b have the same bits or are both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// firstDiff returns the first direction at which a and b differ by
// sameBits, or -1.
func firstDiff(a, b *[Q]float64) int {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// group is one call of the group kernel: one node per lane, each with
// its own populations and record (g, rho, u and f of its state; the
// lanes' own tau is not used), the slots its lanes read and write, and
// the relaxation time, the fold force and the given force (nil: none)
// and whether out is asked for, which the lanes share.
type group struct {
	lanes       []nodeState
	tau         float64
	fold, force *[3]float64
	out         bool
	// The group's first entry in an array of nodes nodes, and its
	// tables: lane k's value q lives at i+k+load[k][q] and goes to
	// i+k+store[k][q].
	i, nodes int
	load     [Lanes]Offsets
	store    [Lanes]Offsets
	shared   bool // every lane uses lane 0's tables
}

// The kinds of table drawGroup draws.
const (
	naturalTables = iota // own slots in, traded or own slots out
	sharedTables         // one random table for every lane
	laneTables           // each lane's own random slots
	numTableKinds
)

// drawTables gives c an array and tables of the given kind. Natural:
// the node's own slots, stored back or traded, as the natural phase of
// an in-place step and the sequential collide do. Shared: each
// direction in its own row of the array, at a random shift that keeps
// the four lanes in the row, stored to the same slots in another order
// — a swapped phase's group whose lanes share a class. Lane: each lane's 19 slots drawn
// from a permutation of the whole array, disjoint from every other
// lane's, loaded and stored in two random orders — a group whose lanes
// differ in class, a cube's face or a wall lane. Every kind keeps the
// lanes' slots apart, as CollideGroup requires.
func drawTables(r *rand.Rand, c *group, kind int) {
	c.nodes = Lanes + r.Intn(12)
	c.i = r.Intn(c.nodes - Lanes + 1)
	switch kind {
	case naturalTables:
		nat, tr := Natural(c.nodes), Traded(c.nodes)
		store := nat
		if r.Intn(2) == 0 {
			store = tr
		}
		for k := range c.load {
			c.load[k], c.store[k] = nat, store
		}
		c.shared = true
	case sharedTables:
		in, out := r.Perm(Q), r.Perm(Q)
		var load, store Offsets
		for q := range load {
			load[q] = in[q]*c.nodes + r.Intn(c.nodes-Lanes+1) - c.i
		}
		for q := range store {
			store[q] = load[out[q]]
		}
		for k := range c.load {
			c.load[k], c.store[k] = load, store
		}
		c.shared = true
	default:
		slots := r.Perm(Q * c.nodes)
		for k := 0; k < Lanes; k++ {
			mine := slots[k*Q : (k+1)*Q]
			out := r.Perm(Q)
			for q := range mine {
				c.load[k][q] = mine[q] - c.i - k
				c.store[k][q] = mine[out[q]] - c.i - k
			}
		}
		c.shared = false
	}
}

// drawGroup draws a group of lane's nodes: four lanes in three groups
// of four, one to three otherwise; each kind of table in turn, each
// combination of fold and given force, and out in half the groups. The
// forces are forces(lanes), which must return values the group does not
// alias.
func drawGroup(r *rand.Rand, lane func() nodeState, forces func(lanes []nodeState) (fold, force [3]float64)) group {
	n := Lanes
	if r.Intn(4) == 0 {
		n = 1 + r.Intn(Lanes-1)
	}
	c := group{lanes: make([]nodeState, n), out: r.Intn(2) == 0}
	for k := range c.lanes {
		c.lanes[k] = lane()
	}
	c.tau = c.lanes[0].tau
	drawTables(r, &c, r.Intn(numTableKinds))
	fold, force := forces(c.lanes)
	switch r.Intn(4) {
	case 1:
		c.fold = &fold
	case 2:
		c.force = &force
	case 3:
		c.fold, c.force = &fold, &force
	}
	return c
}

// array lays c out: an array of c.nodes nodes of background values, each
// lane's populations in its load slots; and the group's tables, lanes
// 0–3 pointing into c's own tables, or all at lane 0's when shared.
func (c *group) array(r *rand.Rand) ([]float64, Group) {
	f := make([]float64, Q*c.nodes)
	for j := range f {
		f[j] = r.Float64()
	}
	for k, s := range c.lanes {
		for q, o := range c.load[k] {
			f[c.i+k+o] = s.g[q]
		}
	}
	var grp Group
	for k := range grp.Load {
		j := k
		if c.shared {
			j = 0
		}
		grp.Load[k], grp.Store[k] = &c.load[j], &c.store[j]
	}
	return f, grp
}

// checkGroup runs the group on the vector body — directly for a group
// of four, through CollideGroup for a shorter one, its tables from lane
// n on nil — and on the Go twin, and fails at the first bit that differs anywhere
// in the array or in the density and velocity a lane reports; with both
// forces given neither body gets records at all. In a group with a fold
// every lane's
// density and velocity, from either body, must be Moments' bits on its
// node under the fold force: the values its wall reflections take and a
// sampled sweep digests.
func checkGroup(t *testing.T, r *rand.Rand, i int, c group) {
	t.Helper()
	n := len(c.lanes)
	got, grp := c.array(r)
	want := append([]float64(nil), got...)
	var recs [Lanes]Record
	for k, s := range c.lanes {
		recs[k] = Record{Vel: s.u, Rho: s.rho, Force: s.f}
	}
	rec := recs[:n]
	if c.fold != nil && c.force != nil {
		rec = nil
	}
	var gotOut, wantOut [Lanes]State
	out := &gotOut
	if !c.out {
		out = nil
	}
	if n == Lanes {
		var r0 *Record
		if rec != nil {
			r0 = &rec[0]
		}
		collideAVX2(&got[c.i], &grp, Lanes, c.shared, r0, c.fold, c.force, c.tau, out)
	} else {
		for k := n; k < Lanes; k++ {
			grp.Load[k], grp.Store[k] = nil, nil
		}
		CollideGroup(got, c.i, n, &grp, rec, c.fold, c.force, c.tau, out)
	}
	collideGroup(want, c.i, n, &grp, recs[:n], c.fold, c.force, c.tau, &wantOut)
	for j := range got {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("group %d (%d lanes, shared %t, fold %v, force %v), slot %d (direction %d, entry %d): vector %#016x (%g), Go %#016x (%g)",
				i, n, c.shared, c.fold, c.force, j, j/c.nodes, j%c.nodes, math.Float64bits(got[j]), got[j], math.Float64bits(want[j]), want[j])
		}
	}
	for k := 0; k < n; k++ {
		w := wantOut[k]
		if c.fold != nil {
			var m State
			m.Rho = Moments(&c.lanes[k].g, *c.fold, &m.U)
			if !sameState(w, m) {
				t.Fatalf("group %d (%d lanes, fold %v), lane %d: FoldCollide collided with %+v, Moments %+v\n%+v", i, n, *c.fold, k, w, m, c.lanes[k])
			}
		}
		if g := gotOut[k]; c.out && !sameState(g, w) {
			t.Fatalf("group %d (%d lanes, fold %v), lane %d: collided with %+v, Go %+v\n%+v", i, n, c.fold, k, g, w, c.lanes[k])
		}
	}
}

// sameState reports whether a and b agree by sameBits in the density
// and every velocity component.
func sameState(a, b State) bool {
	return sameBits(a.Rho, b.Rho) && sameBits(a.U[0], b.U[0]) && sameBits(a.U[1], b.U[1]) && sameBits(a.U[2], b.U[2])
}

// On the kernel's operating range — randomState's nodes — every lane of
// every group gives the Go kernel's bits on its own node, and the array
// outside the group's slots keeps its own, whether the four lanes share
// a table (one vector per direction) or not (a slot per lane).
func TestVectorKernelMatchesGoBitwise(t *testing.T) {
	requireVector(t)
	r := rand.New(rand.NewSource(24))
	lane := func() nodeState { return randomState(r) }
	forces := func(lanes []nodeState) (fold, force [3]float64) {
		return [3]float64{1e-2 * (2*r.Float64() - 1), 0, 1e-3 * r.NormFloat64()}, lanes[len(lanes)-1].f
	}
	for i, nodes := 0, 0; nodes < vectorStates; i++ {
		c := drawGroup(r, lane, forces)
		checkGroup(t, r, i, c)
		nodes += len(c.lanes)
	}
}

// special holds the values whose arithmetic differs from that of an
// ordinary number: signed zeros, subnormals, the largest and smallest
// normals, infinities and NaN.
var special = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-320,
	0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), 1, -1, 0.5,
}

// specialTaus reach towards 1/2 and far above 1.
var specialTaus = [...]float64{0.5 + 0x1p-52, 0.5 + 1e-9, 0.500001, 0.51, 1, 64, 1e6, 1e300}

// specialState draws every population, density, velocity and force
// component from special with probability p, and from randomState's
// node otherwise; tau comes from specialTaus.
func specialState(r *rand.Rand, p float64) nodeState {
	s := randomState(r)
	pick := func(v *float64) {
		if r.Float64() < p {
			*v = special[r.Intn(len(special))]
		}
	}
	for i := range s.g {
		pick(&s.g[i])
	}
	pick(&s.rho)
	for d := 0; d < 3; d++ {
		pick(&s.u[d])
		pick(&s.f[d])
	}
	s.tau = specialTaus[r.Intn(len(specialTaus))]
	return s
}

// zeroDensityState is a node whose populations sum to a zero density of
// either sign, which takes Moments' zero-density branch: every
// population +0 or −0, or each pair's members of opposite sign and equal
// size so that the sums cancel exactly.
func zeroDensityState(r *rand.Rand) nodeState {
	s := randomState(r)
	switch r.Intn(3) {
	case 0:
		s.g = [Q]float64{}
	case 1:
		for i := range s.g {
			s.g[i] = math.Copysign(0, -1)
		}
	default:
		s.g[0] = 0
		for i := 1; i < Q; i += 2 {
			s.g[i+1] = -s.g[i]
		}
	}
	return s
}

// Off the operating range every lane still agrees bit for bit: groups
// whose every lane draws its populations, density, velocity and forces
// from the special values (with probability 0.02, 0.1, 0.5 and 1),
// relaxation times close to 1/2 and very large ones, exactly zero
// forces, and zero-density lanes among ordinary ones, so that Moments'
// zero branch is a per-lane choice in the fold.
func TestVectorKernelMatchesGoOnSpecialValues(t *testing.T) {
	requireVector(t)
	r := rand.New(rand.NewSource(25))
	i := 0
	for _, p := range []float64{0.02, 0.1, 0.5, 1} {
		lane := func() nodeState {
			if r.Intn(8) == 0 {
				s := zeroDensityState(r)
				var u [3]float64
				if rho := Moments(&s.g, s.f, &u); rho != 0 {
					t.Fatalf("zero-density state has density %g\n%+v", rho, s)
				}
				return s
			}
			s := specialState(r, p)
			if r.Intn(4) == 0 {
				s.f = [3]float64{}
			}
			return s
		}
		forces := func(lanes []nodeState) (fold, force [3]float64) {
			if r.Intn(3) != 0 {
				fold = lanes[0].u // any three values will do as a force
			}
			if r.Intn(4) != 0 {
				force = lanes[len(lanes)-1].f
			}
			return fold, force
		}
		for nodes := 0; nodes < vectorStates/4; i++ {
			c := drawGroup(r, lane, forces)
			c.tau = specialTaus[r.Intn(len(specialTaus))]
			checkGroup(t, r, i, c)
			nodes += len(c.lanes)
		}
	}
}

// A group of n nodes writes its n nodes' store slots and nothing else:
// in an array of background values, with and without lanes of their
// own, with every combination of fold and given force, every slot the
// group's n nodes do not store keeps its bits, as does every record,
// and each node's slots hold Collide's (or FoldCollide's) bits on the
// values its load table names. So a short group — a row's tail, which
// takes the vector body's per-lane path on an AVX2 host — stores none
// of the lanes it does not use, whose tables it is given as nil.
func TestShortGroupsWriteOnlyTheirNodes(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	fold, force := [3]float64{3e-3, -1e-3, 2e-3}, [3]float64{-1e-3, 4e-3, 1e-3}
	for n := 1; n <= Lanes; n++ {
		for kind := 0; kind < numTableKinds; kind++ {
			for _, fs := range [][2]*[3]float64{{nil, nil}, {&fold, nil}, {nil, &force}, {&fold, &force}} {
				c := group{lanes: make([]nodeState, n)}
				for k := range c.lanes {
					c.lanes[k] = randomState(r)
				}
				drawTables(r, &c, kind)
				f, grp := c.array(r)
				for k := n; k < Lanes; k++ {
					grp.Load[k], grp.Store[k] = nil, nil
				}
				want := append([]float64(nil), f...)
				recs := make([]Record, n)
				for k, s := range c.lanes {
					recs[k] = Record{Vel: s.u, Rho: s.rho, Force: s.f}
					g := s.g
					fk := s.f
					if fs[1] != nil {
						fk = *fs[1]
					}
					if fs[0] != nil {
						var u [3]float64
						FoldCollide(&g, *fs[0], fk, 0.7, &u)
					} else {
						Collide(&g, s.rho, s.u, fk, 0.7)
					}
					for q, o := range c.store[k] {
						want[c.i+k+o] = g[q]
					}
				}
				wantRecs := append([]Record(nil), recs...)
				var out [Lanes]State
				CollideGroup(f, c.i, n, &grp, recs, fs[0], fs[1], 0.7, &out)
				for j := range f {
					if !sameBits(f[j], want[j]) {
						t.Fatalf("%d nodes, tables %d, fold %v, force %v: slot %d of %d: %#016x, want %#016x",
							n, kind, fs[0], fs[1], j, len(f), math.Float64bits(f[j]), math.Float64bits(want[j]))
					}
				}
				for k := range recs {
					if recs[k] != wantRecs[k] {
						t.Fatalf("%d nodes, tables %d: record %d changed", n, kind, k)
					}
				}
			}
		}
	}
}

// momentsCase is one call of the moments group: the lanes' nodes laid
// out by drawTables (their store tables unused), and the force reset,
// nil or not.
type momentsCase struct {
	group
	reset *[3]float64
}

// drawMoments draws a moments group of lane's nodes: four lanes in three
// groups of four, one to three otherwise, each kind of table in turn,
// and a reset in half the groups.
func drawMoments(r *rand.Rand, lane func() nodeState) momentsCase {
	n := Lanes
	if r.Intn(4) == 0 {
		n = 1 + r.Intn(Lanes-1)
	}
	c := momentsCase{group: group{lanes: make([]nodeState, n)}}
	for k := range c.lanes {
		c.lanes[k] = lane()
	}
	drawTables(r, &c.group, r.Intn(numTableKinds))
	if r.Intn(2) == 0 {
		c.reset = &[3]float64{1e-3 * r.NormFloat64(), 0, -2e-3}
	}
	return c
}

// checkMoments runs the moments group on the vector body where the host
// has one (through MomentsGroup, which takes the shared path for a
// shared group of four) and on the Go twin, and fails at the first bit
// that differs from Moments on a lane's node under its record's force:
// each of the n records must hold Moments' density and velocity and
// the reset force, or its own with no reset; every record from n on and
// every slot of the array must keep its bits. The tables of a short
// group from lane n on are nil.
func checkMoments(t *testing.T, r *rand.Rand, i int, c momentsCase) {
	t.Helper()
	n := len(c.lanes)
	f, grp := c.array(r)
	for k := n; k < Lanes; k++ {
		grp.Load[k], grp.Store[k] = nil, nil
	}
	var want [Lanes]Record
	for k, s := range c.lanes {
		want[k].Force = s.f
		want[k].Rho = Moments(&s.g, s.f, &want[k].Vel)
		if c.reset != nil {
			want[k].Force = *c.reset
		}
	}
	type body struct {
		name string
		run  func(f []float64, r []Record)
	}
	bodies := []body{{"Go twin", func(f []float64, r []Record) { momentsGroup(f, c.i, n, &grp, r, c.reset) }}}
	if cpu.Vector() {
		bodies = append(bodies, body{"vector", func(f []float64, r []Record) { MomentsGroup(f, c.i, n, &grp, r, c.reset) }})
	}
	for _, b := range bodies {
		got := append([]float64(nil), f...)
		var recs [Lanes]Record
		for k := range recs {
			recs[k] = Record{Vel: [3]float64{r.Float64(), -1, 2}, Rho: r.Float64(), Force: [3]float64{3, r.Float64(), -4}}
			if k < n {
				recs[k] = Record{Vel: c.lanes[k].u, Rho: c.lanes[k].rho, Force: c.lanes[k].f}
			}
		}
		before := recs
		b.run(got, recs[:n])
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(f[j]) {
				t.Fatalf("group %d (%d lanes, shared %t), %s: slot %d changed", i, n, c.shared, b.name, j)
			}
		}
		for k := range recs {
			g, w := recs[k], want[k]
			if k >= n {
				w = before[k]
			}
			if !sameState(State{U: g.Vel, Rho: g.Rho}, State{U: w.Vel, Rho: w.Rho}) ||
				!sameBits(g.Force[0], w.Force[0]) || !sameBits(g.Force[1], w.Force[1]) || !sameBits(g.Force[2], w.Force[2]) {
				t.Fatalf("group %d (%d lanes, shared %t, reset %v), %s, record %d: %+v, want %+v\n%+v",
					i, n, c.shared, c.reset, b.name, k, g, w, c.lanes[min(k, n-1)])
			}
		}
	}
}

// MomentsGroup, vector and Go twin, gives Moments' bits on every lane of
// every group of randomState's nodes: four lanes or fewer, sharing a
// table or not, with and without a reset.
func TestMomentsGroupMatchesMomentsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	lane := func() nodeState { return randomState(r) }
	for i, nodes := 0, 0; nodes < vectorStates/4; i++ {
		c := drawMoments(r, lane)
		checkMoments(t, r, i, c)
		nodes += len(c.lanes)
	}
}

// Off the operating range too: lanes whose populations and force draw
// from the special values (NaN, ±Inf, ±0, subnormals, the extreme
// normals) with probability 0.02, 0.1, 0.5 and 1, and zero-density
// lanes — populations of +0, of −0, or pairs that cancel exactly —
// among them, whose density is +0 and velocity +0 lane by lane.
func TestMomentsGroupMatchesMomentsOnSpecialValues(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	i := 0
	for _, p := range []float64{0.02, 0.1, 0.5, 1} {
		lane := func() nodeState {
			if r.Intn(6) == 0 {
				return zeroDensityState(r)
			}
			return specialState(r, p)
		}
		for nodes := 0; nodes < vectorStates/16; i++ {
			c := drawMoments(r, lane)
			checkMoments(t, r, i, c)
			nodes += len(c.lanes)
		}
	}
}

// TestGroupLayout pins the layouts kernel_amd64.s addresses by byte
// offset, on every host: 152-byte offset tables of 8-byte entries,
// 64-byte groups with the load tables at 0 and the store tables at 32,
// 56-byte records with Vel at 0, Rho at 24 and Force at 32, and 32-byte
// states with U at 0 and Rho at 24.
func TestGroupLayout(t *testing.T) {
	var r Record
	var s State
	var g Group
	got := [10]uintptr{unsafe.Sizeof(Offsets{}), unsafe.Sizeof(g), unsafe.Offsetof(g.Load), unsafe.Offsetof(g.Store), unsafe.Sizeof(r), unsafe.Offsetof(r.Vel), unsafe.Offsetof(r.Rho), unsafe.Offsetof(r.Force), unsafe.Sizeof(s), unsafe.Offsetof(s.Rho)}
	if want := [10]uintptr{152, 64, 0, 32, 56, 0, 24, 32, 32, 24}; got != want {
		t.Fatalf("sizes and offsets %v, want %v: the vector body addresses the old layout", got, want)
	}
}

// BenchmarkCollide times the node kernel on a ring of nodes larger than
// L1 (1024 nodes, 152 KiB of populations and 56 KiB of records), so
// consecutive calls are independent, as they are in a pass over a block:
// the Go kernel of Collide and of FoldCollide, one node per call; a
// row's tail, one node per CollideGroup call, on the vector body's
// short path and on the Go twin; and the
// vector body and the Go twin of CollideGroup, four consecutive nodes
// per call, on the direction-major ring through the natural phase's
// tables (each direction one vector), and through four copies of them
// ("lanes": the per-lane path of a cube's face), with the records'
// moments and force ("group"), with the moments folded in and a given
// force ("group/fold", a block outside the support), and with the fold
// and the collided moments reported ("group/observed", a sampled
// sweep); and kernel 7 on the same ring, through the same tables
// ("moments": MomentsGroup's vector body and its Go twin, four nodes per
// call with shared and per-lane tables, and a one-node tail), each
// node's moments into its record. The metric is ns per node.
//
//	go test -run '^$' -bench Collide ./internal/lattice
func BenchmarkCollide(b *testing.B) {
	// The ring of nodes is laid out direction-major at a grid's padded
	// stride (grid.newGrid: the node count rounded up to 512, plus 8), so
	// a node's 19 values do not share one L1 set as at a stride of 1024.
	const ring = 1024 // a power of two, a multiple of Lanes
	const stride = (ring+511)/512*512 + 8
	r := rand.New(rand.NewSource(26))
	nodes := make([][Q]float64, ring)
	f0 := make([]float64, Q*stride)
	recs := make([]Record, ring)
	for i := range nodes {
		s := randomState(r)
		nodes[i], recs[i] = s.g, Record{Vel: s.u, Rho: s.rho, Force: s.f}
		for q, v := range s.g {
			f0[q*stride+i] = v
		}
	}
	const tau = 0.8
	body := [3]float64{1e-5, -2e-5, 0}
	var out [Lanes]State
	nat, tr := Natural(stride), Traded(stride)
	shared := Uniform(&nat, &tr)
	var lt [2][Lanes]Offsets
	var lanes Group
	for k := range lanes.Load {
		lt[0][k], lt[1][k] = nat, tr
		lanes.Load[k], lanes.Store[k] = &lt[0][k], &lt[1][k]
	}
	for _, c := range []struct {
		name   string
		vector bool
		nodes  int
		call   func(f []float64, j int)
	}{
		{"portable", false, 1, func(f []float64, j int) { Collide(&nodes[j], recs[j].Rho, recs[j].Vel, recs[j].Force, tau) }},
		{"fold/portable", false, 1, func(f []float64, j int) { FoldCollide(&nodes[j], body, recs[j].Force, tau, &out[0].U) }},
		{"tail/vector", true, 1, func(f []float64, j int) { CollideGroup(f, j, 1, &shared, recs[j:j+1], nil, nil, tau, nil) }},
		{"tail/portable", false, 1, func(f []float64, j int) { collideGroup(f, j, 1, &shared, recs[j:j+1], nil, nil, tau, nil) }},
		{"group/vector", true, Lanes, func(f []float64, j int) { collideAVX2(&f[j], &shared, Lanes, true, &recs[j], nil, nil, tau, nil) }},
		{"group/lanes/vector", true, Lanes, func(f []float64, j int) { collideAVX2(&f[j], &lanes, Lanes, false, &recs[j], nil, nil, tau, nil) }},
		{"group/portable", false, Lanes, func(f []float64, j int) { collideGroup(f, j, Lanes, &shared, recs[j:], nil, nil, tau, nil) }},
		{"group/fold/vector", true, Lanes, func(f []float64, j int) { collideAVX2(&f[j], &shared, Lanes, true, nil, &body, &body, tau, nil) }},
		{"group/fold/portable", false, Lanes, func(f []float64, j int) { collideGroup(f, j, Lanes, &shared, nil, &body, &body, tau, nil) }},
		{"group/observed/vector", true, Lanes, func(f []float64, j int) { collideAVX2(&f[j], &shared, Lanes, true, nil, &body, &body, tau, &out) }},
		{"group/observed/portable", false, Lanes, func(f []float64, j int) { collideGroup(f, j, Lanes, &shared, nil, &body, &body, tau, &out) }},
		{"moments/tail/vector", true, 1, func(f []float64, j int) { MomentsGroup(f, j, 1, &shared, recs[j:j+1], nil) }},
		{"moments/tail/portable", false, 1, func(f []float64, j int) { momentsGroup(f, j, 1, &shared, recs[j:j+1], nil) }},
		{"moments/group/vector", true, Lanes, func(f []float64, j int) { momentsAVX2(&f[j], &shared, Lanes, true, &recs[j], nil) }},
		{"moments/group/lanes/vector", true, Lanes, func(f []float64, j int) { momentsAVX2(&f[j], &lanes, Lanes, false, &recs[j], nil) }},
		{"moments/group/portable", false, Lanes, func(f []float64, j int) { momentsGroup(f, j, Lanes, &shared, recs[j:j+Lanes], nil) }},
		{"moments/group/lanes/portable", false, Lanes, func(f []float64, j int) { momentsGroup(f, j, Lanes, &lanes, recs[j:j+Lanes], nil) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.vector && !cpu.Vector() {
				b.Skip("no vector body on this host")
			}
			f := append([]float64(nil), f0...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.call(f, i*c.nodes%ring)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.nodes), "ns/node")
		})
	}
}
