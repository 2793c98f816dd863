package core

import (
	"math"
	"testing"
	"time"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

func smallSheet() *fiber.Sheet {
	return fiber.NewSheet(fiber.Params{
		NumFibers:     6,
		NodesPerFiber: 6,
		Width:         5,
		Height:        5,
		Origin:        fiber.Vec3{6, 5.2, 5.7},
		Ks:            0.05,
		Kb:            0.001,
	})
}

func TestRestStateIsFixedPoint(t *testing.T) {
	s := MustNewSolver(Config{NX: 6, NY: 6, NZ: 6, Tau: 0.7})
	s.Run(3)
	for i := range s.Fluid.Macros() {
		n := &s.Fluid.Macros()[i]
		if math.Abs(n.Rho-1) > 1e-14 {
			t.Fatalf("node %d rho drifted to %g", i, n.Rho)
		}
		for d := 0; d < 3; d++ {
			if math.Abs(n.Vel[d]) > 1e-14 {
				t.Fatalf("node %d velocity drifted to %v", i, n.Vel)
			}
		}
	}
}

func TestUniformFlowIsFixedPointPeriodic(t *testing.T) {
	s := MustNewSolver(Config{NX: 5, NY: 4, NZ: 6, Tau: 0.8})
	u0 := [3]float64{0.04, -0.02, 0.01}
	s.Fluid.Reset(1, u0)
	s.Run(4)
	for i := range s.Fluid.Macros() {
		n := &s.Fluid.Macros()[i]
		for d := 0; d < 3; d++ {
			if math.Abs(n.Vel[d]-u0[d]) > 1e-13 {
				t.Fatalf("uniform flow not preserved: node %d vel %v, want %v", i, n.Vel, u0)
			}
		}
	}
}

func TestMassConservedPeriodic(t *testing.T) {
	s := MustNewSolver(Config{NX: 8, NY: 8, NZ: 8, Tau: 0.6, Sheet: smallSheet(),
		BodyForce: [3]float64{1e-5, 0, 0}})
	m0 := s.Fluid.TotalMass()
	s.Run(25)
	m1 := s.Fluid.TotalMass()
	if math.Abs(m1-m0) > 1e-9*m0 {
		t.Fatalf("mass drifted: %.15g -> %.15g", m0, m1)
	}
}

func TestMassConservedBounceBack(t *testing.T) {
	s := MustNewSolver(Config{NX: 6, NY: 6, NZ: 8, Tau: 0.8, BCZ: BounceBack,
		BodyForce: [3]float64{1e-5, 0, 0}})
	m0 := s.Fluid.TotalMass()
	s.Run(30)
	if m1 := s.Fluid.TotalMass(); math.Abs(m1-m0) > 1e-9*m0 {
		t.Fatalf("mass drifted with walls: %.15g -> %.15g", m0, m1)
	}
}

// One step from rest with a body force must add exactly (1 − 1/2τ)·Σf to
// the distribution momentum (the Guo forcing first moment).
func TestForcingMomentumInput(t *testing.T) {
	tau := 0.75
	f := [3]float64{2e-4, -1e-4, 5e-5}
	s := MustNewSolver(Config{NX: 5, NY: 5, NZ: 5, Tau: tau, BodyForce: f})
	s.Step()
	m := s.Fluid.TotalMomentum()
	n := float64(s.Fluid.NumNodes())
	pre := 1 - 1/(2*tau)
	for d := 0; d < 3; d++ {
		want := pre * n * f[d]
		if math.Abs(m[d]-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("momentum[%d] = %g after one forced step, want %g", d, m[d], want)
		}
	}
}

// The reported macroscopic velocity after one forced step includes the
// half-force correction: u = ((1−1/2τ)f + f/2)/ρ = f/ρ... verify the exact
// Guo value.
func TestForcedVelocityAfterOneStep(t *testing.T) {
	tau := 0.8
	fx := 3e-4
	s := MustNewSolver(Config{NX: 4, NY: 4, NZ: 4, Tau: tau, BodyForce: [3]float64{fx, 0, 0}})
	s.Step()
	want := (1 - 1/(2*tau) + 0.5) * fx // per unit density
	for i := range s.Fluid.Macros() {
		got := s.Fluid.Macros()[i].Vel[0]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("node %d u_x = %g, want %g", i, got, want)
		}
	}
}

// Poiseuille channel flow: body force along x, bounce-back walls in z,
// periodic x/y. The steady profile must match the analytic parabola
// u(z) = g/(2ν) · (z + 1/2)(NZ − 1/2 − z) within a percent.
func TestPoiseuilleProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("long relaxation to steady state")
	}
	nz := 9
	tau := 0.9
	g := 1e-5
	s := MustNewSolver(Config{NX: 4, NY: 4, NZ: nz, Tau: tau, BCZ: BounceBack,
		BodyForce: [3]float64{g, 0, 0}})
	nu := lattice.ViscosityFromTau(tau)
	// Run to steady state: diffusion time ≈ NZ²/ν.
	steps := int(12 * float64(nz*nz) / nu)
	s.Run(steps)
	for z := 0; z < nz; z++ {
		got := s.Fluid.At(2, 2, z).Vel[0]
		zz := float64(z)
		want := g / (2 * nu) * (zz + 0.5) * (float64(nz) - 0.5 - zz)
		if math.Abs(got-want) > 0.02*want {
			t.Fatalf("Poiseuille u(z=%d) = %g, want %g (±2%%)", z, got, want)
		}
	}
}

// Symmetric decay: a sinusoidal shear wave decays at the analytic viscous
// rate exp(−ν k² t) — validates the viscosity/τ relation end to end.
func TestShearWaveDecayRate(t *testing.T) {
	n := 16
	tau := 0.8
	nu := lattice.ViscosityFromTau(tau)
	s := MustNewSolver(Config{NX: n, NY: 4, NZ: 4, Tau: tau})
	amp := 1e-3
	k := 2 * math.Pi / float64(n)
	// Initialize u_y(x) = amp·sin(kx) via equilibrium distributions.
	for x := 0; x < n; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 4; z++ {
				nd := s.Fluid.At(x, y, z)
				u := [3]float64{0, amp * math.Sin(k*float64(x)), 0}
				var geq [lattice.Q]float64
				lattice.Equilibrium(1, u, &geq)
				s.Fluid.Store(s.Fluid.Idx(x, y, z), &geq)
				nd.Vel = u
				nd.Rho = 1
			}
		}
	}
	steps := 200
	s.Run(steps)
	// Measure the remaining amplitude by projection onto sin(kx).
	num, den := 0.0, 0.0
	for x := 0; x < n; x++ {
		sx := math.Sin(k * float64(x))
		num += s.Fluid.At(x, 0, 0).Vel[1] * sx
		den += sx * sx
	}
	got := num / den
	want := amp * math.Exp(-nu*k*k*float64(steps))
	if math.Abs(got-want) > 0.02*amp {
		t.Fatalf("shear wave amplitude after %d steps = %g, want %g", steps, got, want)
	}
}

func TestSheetInShearStaysBoundedAndMoves(t *testing.T) {
	sh := smallSheet()
	s := MustNewSolver(Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, Sheet: sh,
		BodyForce: [3]float64{5e-5, 0, 0}})
	c0 := sh.Centroid()
	s.Run(60)
	c1 := sh.Centroid()
	if !(c1[0] > c0[0]) {
		t.Fatalf("sheet did not advect downstream: centroid %v -> %v", c0, c1)
	}
	if v := s.Fluid.MaxVelocity(); v > 0.1 {
		t.Fatalf("simulation unstable: max velocity %g", v)
	}
	for i, x := range sh.X {
		for d := 0; d < 3; d++ {
			if math.IsNaN(x[d]) {
				t.Fatalf("fiber node %d position NaN", i)
			}
		}
	}
}

func TestFixedNodesDoNotMove(t *testing.T) {
	sh := smallSheet()
	sh.FixRegion(1.2)
	s := MustNewSolver(Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, Sheet: sh,
		BodyForce: [3]float64{1e-4, 0, 0}})
	var fixedIdx []int
	orig := map[int]fiber.Vec3{}
	for i, fx := range sh.Fixed {
		if fx {
			fixedIdx = append(fixedIdx, i)
			orig[i] = sh.X[i]
		}
	}
	if len(fixedIdx) == 0 {
		t.Fatal("no fixed nodes in test setup")
	}
	s.Run(40)
	for _, i := range fixedIdx {
		if sh.X[i] != orig[i] {
			t.Fatalf("fixed node %d moved: %v -> %v", i, orig[i], sh.X[i])
		}
	}
	// Free nodes must have moved.
	moved := false
	for i, fx := range sh.Fixed {
		if !fx && sh.Vel[i] != (fiber.Vec3{}) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no free node acquired velocity")
	}
}

// The fluid must feel the sheet: a deformed sheet at rest in quiescent
// fluid sets the nearby fluid in motion through force spreading.
func TestSheetForcesFluid(t *testing.T) {
	sh := smallSheet()
	// Deform the sheet so it carries elastic force.
	for i := range sh.X {
		sh.X[i][0] += 0.3 * math.Sin(float64(i))
	}
	s := MustNewSolver(Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, Sheet: sh})
	s.Run(2)
	if v := s.Fluid.MaxVelocity(); v == 0 {
		t.Fatal("deformed sheet imparted no motion to the fluid")
	}
}

type recordObserver struct {
	calls map[Kernel]int
	total time.Duration
}

func (r *recordObserver) Emit(e Event) {
	if e.Kind != KernelDone {
		return
	}
	if r.calls == nil {
		r.calls = map[Kernel]int{}
	}
	r.calls[e.Kernel]++
	r.total += e.D
}

func TestObserverSeesAllNineKernels(t *testing.T) {
	s := MustNewSolver(Config{NX: 6, NY: 6, NZ: 6, Tau: 0.7, Sheet: smallSheet()})
	obs := &recordObserver{}
	s.Probe = obs
	s.Run(3)
	if len(obs.calls) != NumKernels {
		t.Fatalf("observer saw %d kernels, want %d", len(obs.calls), NumKernels)
	}
	for _, k := range Kernels() {
		if obs.calls[k] != 3 {
			t.Fatalf("kernel %v called %d times, want 3", k, obs.calls[k])
		}
	}
}

func TestKernelNames(t *testing.T) {
	if KComputeCollision.String() != "compute_fluid_collision" {
		t.Fatalf("kernel 5 name = %q", KComputeCollision.String())
	}
	if Kernel(0).String() != "unknown_kernel" || Kernel(10).String() != "unknown_kernel" {
		t.Fatal("out-of-range kernels must stringify to unknown_kernel")
	}
	seen := map[string]bool{}
	for _, k := range Kernels() {
		n := k.String()
		if n == "unknown_kernel" || seen[n] {
			t.Fatalf("bad or duplicate kernel name %q", n)
		}
		seen[n] = true
	}
}

func TestStepCount(t *testing.T) {
	s := MustNewSolver(Config{NX: 4, NY: 4, NZ: 4})
	s.Run(7)
	if s.StepCount() != 7 {
		t.Fatalf("StepCount = %d, want 7", s.StepCount())
	}
}

func TestDefaultTau(t *testing.T) {
	s := MustNewSolver(Config{NX: 4, NY: 4, NZ: 4})
	if s.Tau != 0.6 {
		t.Fatalf("default tau = %g, want 0.6", s.Tau)
	}
}

// Kernel 9 must make the two distribution arrays equal exactly.
func TestCopyDistribution(t *testing.T) {
	s := MustNewSolver(Config{NX: 4, NY: 4, NZ: 4, Tau: 0.7, BodyForce: [3]float64{1e-4, 0, 0}})
	s.SpreadForce()
	s.ComputeCollision()
	s.StreamDistribution()
	s.UpdateVelocity()
	s.CopyDistribution()
	for j := range s.Fluid.Dist() {
		if s.Fluid.Dist()[j] != s.next[j] {
			t.Fatalf("slot %d: arrays differ after copy", j)
		}
	}
}

// Kernels 5 and 7 run once per node per step in every engine; a heap
// allocation in any of their bodies (an escaping scratch array or table
// group, say) would be paid there, and so would one in the refresh of
// stale records between steps. The stream bodies — the in-place ones, the
// between-steps Canonicalize and the sequential push — run on a walled,
// lid-driven grid so their boundary paths count too.
func TestCollideAndUpdateRangeDoNotAllocate(t *testing.T) {
	g := grid.New(16, 16, 16)
	reset := [3]float64{1e-5, 0, 0}
	if n := testing.AllocsPerRun(10, func() { CollideRange(g.Dist(), g.Stride(), 0, g.Macros(), 0.7) }); n != 0 {
		t.Errorf("CollideRange over %d nodes: %v allocations per run, want 0", g.NumNodes(), n)
	}
	if n := testing.AllocsPerRun(10, func() { UpdateRange(g.Dist(), g.Stride(), 0, g.Macros(), &reset) }); n != 0 {
		t.Errorf("UpdateRange over %d nodes: %v allocations per run, want 0", g.NumNodes(), n)
	}
	p := Problem{BCZ: BounceBack, LidVelocity: [3]float64{0.01, 0, 0}}
	st := NewStreamer(g, p.StreamBC(16, 16, 16))
	for _, swapped := range []bool{false, true} {
		if n := testing.AllocsPerRun(10, func() {
			AABlock(st, g.Dist(), 0, 0.7, swapped, nil, nil, nil)
			AAMomentsBlock(st, g.Dist(), 0, !swapped, &reset)
		}); n != 0 {
			t.Errorf("AABlock and AAMomentsBlock from swapped=%v: %v allocations per run, want 0", swapped, n)
		}
	}
	if n := testing.AllocsPerRun(10, func() { AAMomentsBlock(st, g.Dist(), 0, true, nil) }); n != 0 {
		t.Errorf("swapped AAMomentsBlock: %v allocations per run, want 0", n)
	}
	sup := NewSupport(g.NumBlocks())
	if n := testing.AllocsPerRun(10, func() {
		fresh, _ := sup.Sets(0)
		clear(fresh)
		RefreshBlocks(st, g.Dist(), sup, true, 0, g.NumBlocks())
	}); n != 0 {
		t.Errorf("RefreshBlocks over %d stale blocks: %v allocations per run, want 0", g.NumBlocks(), n)
	}
	if n := testing.AllocsPerRun(10, func() { Canonicalize(st, g.Dist()) }); n != 0 {
		t.Errorf("Canonicalize over %d nodes: %v allocations per run, want 0", g.NumNodes(), n)
	}
	next := make([]float64, len(g.Dist()))
	if n := testing.AllocsPerRun(10, func() { st.Block(0, next) }); n != 0 {
		t.Errorf("Streamer.Block: %v allocations per run, want 0", n)
	}
}

// CanonicalizeBlocks trades a node's values pair by pair, (q, q+1) for
// odd q, and leaves the rest value alone: that must be
// lattice.Opposite's pairing.
func TestOppositePairsAreAdjacent(t *testing.T) {
	if lattice.Opposite[0] != 0 {
		t.Fatalf("Opposite[0] = %d, want 0", lattice.Opposite[0])
	}
	for q := 1; q < lattice.Q-1; q += 2 {
		if lattice.Opposite[q] != q+1 {
			t.Fatalf("Opposite[%d] = %d, want %d", q, lattice.Opposite[q], q+1)
		}
	}
}

// Streaming must be a pure permutation of distribution values under
// periodic boundaries: the multiset of values per direction is preserved.
func TestStreamingIsPermutation(t *testing.T) {
	s := MustNewSolver(Config{NX: 4, NY: 3, NZ: 5, Tau: 0.7})
	// Give every node a unique distribution signature.
	cur, next, n := s.Fluid.Dist(), s.next, s.Fluid.NumNodes()
	slot := s.Fluid.Slot
	for i := 0; i < n; i++ {
		for q := 0; q < lattice.Q; q++ {
			cur[slot(i, q)] = float64(i*lattice.Q + q)
		}
	}
	s.StreamDistribution()
	for q := 0; q < lattice.Q; q++ {
		var sumOld, sumNew float64
		for i := 0; i < n; i++ {
			sumOld += cur[slot(i, q)]
			sumNew += next[slot(i, q)]
		}
		if math.Abs(sumOld-sumNew) > 1e-9 {
			t.Fatalf("direction %d not conserved by streaming: %g vs %g", q, sumOld, sumNew)
		}
	}
	// Spot check one displacement: direction 1 = (+1,0,0).
	got := next[s.Fluid.Slot(s.Fluid.Idx(1, 0, 0), 1)]
	want := cur[s.Fluid.Slot(s.Fluid.Idx(0, 0, 0), 1)]
	if got != want {
		t.Fatalf("streaming displaced wrong value: got %g want %g", got, want)
	}
}

func BenchmarkSequentialStep16(b *testing.B) {
	s := MustNewSolver(Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, Sheet: smallSheet(),
		BodyForce: [3]float64{1e-5, 0, 0}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func TestNewSolverRejectsBadTau(t *testing.T) {
	// The BGK stability bound: tau <= 0.5 means negative (or infinite)
	// viscosity, which previously slipped through silently.
	for _, tau := range []float64{0.5, 0.49, 0.1, -1} {
		if _, err := NewSolver(Config{NX: 4, NY: 4, NZ: 4, Tau: tau}); err == nil {
			t.Fatalf("tau=%g accepted", tau)
		}
	}
	// Tau == 0 selects the documented default and must succeed.
	s, err := NewSolver(Config{NX: 4, NY: 4, NZ: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tau != 0.6 {
		t.Fatalf("default tau = %g, want 0.6", s.Tau)
	}
}

// ValidateTau is the single stability gate every engine shares; pin its
// boundary behavior exactly: τ = 0.5 is rejected (zero viscosity), the
// next representable value above is accepted, and non-finite values are
// rejected rather than flowing NaN into the collision kernel.
func TestValidateTauBoundaries(t *testing.T) {
	reject := []float64{0.5, math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.7}
	for _, tau := range reject {
		if err := ValidateTau(tau); err == nil {
			t.Errorf("ValidateTau(%g) accepted", tau)
		}
	}
	accept := []float64{math.Nextafter(0.5, 1), 0.51, 0.6, 1, 100}
	for _, tau := range accept {
		if err := ValidateTau(tau); err != nil {
			t.Errorf("ValidateTau(%g) rejected: %v", tau, err)
		}
	}
}
