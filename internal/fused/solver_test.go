package fused

import (
	"sync/atomic"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/omp"
	"lbmib/internal/validate"
)

func testSheet() *fiber.Sheet {
	return fiber.NewSheet(fiber.Params{
		NumFibers: 8, NodesPerFiber: 8, Width: 7, Height: 7,
		Origin: fiber.Vec3{6, 4.3, 4.6}, Ks: 0.05, Kb: 0.001,
	})
}

func baseConfig(sheet *fiber.Sheet) core.Config {
	return core.Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{3e-5, 0, 0},
		Sheet:     sheet,
	}
}

// requireBitwiseFluid asserts the two grids carry bitwise-identical
// present distributions and macroscopic fields.
func requireBitwiseFluid(t *testing.T, ref *core.Solver, s *Solver, label string) {
	t.Helper()
	a, b := ref.Fluid, s.Live()
	for i := range a.Macros() {
		na, nb := &a.Macros()[i], &b.Macros()[i]
		if a.Dist()[i] != b.Dist()[i] {
			t.Fatalf("%s: node %d distributions differ bitwise", label, i)
		}
		if na.Vel != nb.Vel || na.Rho != nb.Rho {
			t.Fatalf("%s: node %d macroscopic state differs bitwise", label, i)
		}
	}
}

// The fused sweep reorganizes memory traffic, not arithmetic: fluid-only,
// the result must be bitwise identical to the sequential reference at
// every thread count — periodic, walled, and
// moving-lid alike. Thread counts above NX exercise the clamp; tiny grids
// exercise the degenerate chunk shapes of the wavefront (size-1 and
// size-2 chunks finalize entirely in region B).
func TestFluidOnlyBitwiseEqualsSequential(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"periodic", core.Config{NX: 12, NY: 10, NZ: 8, Tau: 0.8, BodyForce: [3]float64{5e-5, 1e-5, 0}}},
		{"walls-z", core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.8, BCZ: core.BounceBack, BodyForce: [3]float64{1e-4, 0, 0}}},
		{"cavity-lid", core.Config{NX: 10, NY: 6, NZ: 8, Tau: 0.65,
			BCX: core.BounceBack, BCY: core.BounceBack, BCZ: core.BounceBack,
			LidVelocity: [3]float64{0.03, 0.01, 0}}},
		{"tiny", core.Config{NX: 2, NY: 2, NZ: 2, Tau: 0.9, BCZ: core.BounceBack, LidVelocity: [3]float64{0.02, 0, 0}}},
		{"slab-thin", core.Config{NX: 3, NY: 16, NZ: 2, Tau: 0.7, BCY: core.BounceBack, BodyForce: [3]float64{0, 0, 2e-5}}},
	}
	const steps = 9
	for _, tc := range cases {
		ref := core.MustNewSolver(tc.cfg)
		ref.Run(steps)
		for _, threads := range []int{1, 2, 3, 4, 7, 32} {
			s := MustNewSolver(Config{Config: tc.cfg, Threads: threads})
			s.Run(steps)
			requireBitwiseFluid(t, ref, s, tc.name)
			s.Close()
		}
	}
}

// With an immersed sheet the fused engine shares the OpenMP-style
// solver's spreading code on the same team, so the two engines must stay
// bitwise identical at every thread count.
func TestBitwiseEqualsOMPWithSheets(t *testing.T) {
	const steps = 10
	for _, threads := range []int{1, 2, 3, 4} {
		ref := omp.MustNewSolver(omp.Config{Config: baseConfig(testSheet()), Threads: threads})
		ref.Run(steps)
		s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: threads})
		s.Run(steps)
		a, b := ref.Live(), s.Live()
		for i := range a.Macros() {
			if a.Dist()[i] != b.Dist()[i] {
				t.Fatalf("threads=%d: node %d distributions differ from omp", threads, i)
			}
		}
		for i := range ref.Sheet().X {
			if ref.Sheet().X[i] != s.Sheet().X[i] {
				t.Fatalf("threads=%d: fiber node %d position differs from omp", threads, i)
			}
		}
		ref.Close()
		s.Close()
	}
}

// A full single-threaded FSI run is bitwise identical to the sequential
// reference.
func TestSingleThreadBitwiseEqualsSequential(t *testing.T) {
	const steps = 8
	ref := core.MustNewSolver(baseConfig(testSheet()))
	ref.Run(steps)
	s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: 1})
	defer s.Close()
	s.Run(steps)
	requireBitwiseFluid(t, ref, s, "single-thread FSI")
	for i := range ref.Sheet().X {
		if ref.Sheet().X[i] != s.Sheet().X[i] {
			t.Fatalf("fiber node %d position differs bitwise at 1 thread", i)
		}
	}
}

// Multithreaded FSI is bitwise equal to the sequential reference too:
// each thread spreads into the slab it owns, in the reference's order.
func TestMatchesSequentialWithSheets(t *testing.T) {
	const steps = 12
	ref := core.MustNewSolver(baseConfig(testSheet()))
	ref.Run(steps)
	for _, threads := range []int{2, 4, 8} {
		s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: threads})
		s.Run(steps)
		gd, err := validate.GridsPhysics(ref.Fluid, s.Live())
		if err != nil {
			t.Fatal(err)
		}
		if !gd.Within(0) {
			t.Fatalf("threads=%d fluid diverges: %v", threads, gd)
		}
		sd, err := validate.Sheets(ref.Sheet(), s.Sheet())
		if err != nil {
			t.Fatal(err)
		}
		if !sd.Within(0) {
			t.Fatalf("threads=%d sheet diverges: %v", threads, sd)
		}
		s.Close()
	}
}

// Periodic-wrap pin for in-place streaming: a perturbation planted on the
// x-max plane must cross the periodic seam into plane 0 in one step,
// exactly as the push-streaming reference moves it.
func TestPeriodicWrapStreaming(t *testing.T) {
	cfg := core.Config{NX: 5, NY: 4, NZ: 4, Tau: 0.8}
	perturb := func(g *grid.Grid) {
		// Direction 1 is +x in the D3Q19 table; bump its population on a
		// node of the last x-plane so the pulse must wrap.
		g.Dist()[g.Idx(cfg.NX-1, 2, 2)][1] += 1e-3
	}
	ref := core.MustNewSolver(cfg)
	perturb(ref.Fluid)
	clean := core.MustNewSolver(cfg)
	ref.Run(1)
	clean.Run(1)

	s := MustNewSolver(Config{Config: cfg, Threads: 3})
	defer s.Close()
	perturb(s.Fluid)
	s.Run(1)
	requireBitwiseFluid(t, ref, s, "wrap")

	// The pin itself: the wrapped node received the pulse (differs from
	// an unperturbed run), so the bitwise match above proves wrap-around,
	// not just untouched interior agreement.
	g := s.Live()
	got := g.Dist()[g.Idx(0, 2, 2)][1]
	base := clean.Fluid.Dist()[clean.Fluid.Idx(0, 2, 2)][1]
	if got == base {
		t.Fatalf("perturbation did not wrap: plane-0 node unchanged (%g)", got)
	}
}

// Moving-lid pin: the four lid-adjacent corner columns mix the Ladd
// momentum-exchange term with two side walls — the hardest boundary
// nodes. They must match the sequential core bitwise.
func TestMovingLidCornerEquality(t *testing.T) {
	cfg := core.Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		BCX: core.BounceBack, BCY: core.BounceBack, BCZ: core.BounceBack,
		LidVelocity: [3]float64{0.04, 0.01, 0},
	}
	const steps = 10
	ref := core.MustNewSolver(cfg)
	ref.Run(steps)
	s := MustNewSolver(Config{Config: cfg, Threads: 4})
	defer s.Close()
	s.Run(steps)
	g := s.Live()
	for _, x := range []int{0, cfg.NX - 1} {
		for _, y := range []int{0, cfg.NY - 1} {
			na, nb := ref.Fluid.At(x, y, cfg.NZ-1), g.At(x, y, cfg.NZ-1)
			i := g.Idx(x, y, cfg.NZ-1)
			if ref.Fluid.Dist()[i] != g.Dist()[i] || na.Vel != nb.Vel || na.Rho != nb.Rho {
				t.Fatalf("lid corner (%d,%d,%d) differs from sequential", x, y, cfg.NZ-1)
			}
		}
	}
	// And the full grid, for completeness (fluid-only = bitwise).
	requireBitwiseFluid(t, ref, s, "moving lid")
}

// Re-seeding the force and counting every record fresh re-establishes
// every engine invariant — what the facade does after Restore: copying a
// mid-run state into a fresh engine and continuing must reproduce the
// uninterrupted run bitwise.
func TestLoadRoundTrip(t *testing.T) {
	mk := func() *Solver {
		return MustNewSolver(Config{Config: baseConfig(nil), Threads: 3})
	}
	full := mk()
	full.Run(9)
	half := mk()
	half.Run(5)
	resumed := mk()
	src, dst := half.Live(), resumed.Live()
	for i := range src.Macros() {
		s, d := &src.Macros()[i], &dst.Macros()[i]
		dst.Dist()[i] = src.Dist()[i]
		d.Rho, d.Vel = s.Rho, s.Vel
	}
	core.SeedForce(dst.Macros(), resumed.BodyForce)
	resumed.Support.Loaded()
	resumed.Run(4)
	ga, gb := full.Live(), resumed.Live()
	for i := range ga.Macros() {
		if ga.Dist()[i] != gb.Dist()[i] {
			t.Fatalf("node %d differs after load round trip", i)
		}
	}
	full.Close()
	half.Close()
	resumed.Close()
}

// phaseCount counts callbacks; atomically, because the sweep's regions
// report per worker thread.
type phaseCount struct{ calls atomic.Int64 }

func (p *phaseCount) Emit(e core.Event) {
	if e.Kind == core.PhaseDone {
		p.calls.Add(1)
	}
}

// The fused step reports one fibers-force and one move-fibers sample
// plus a per-thread sample for each of the sweep's two regions.
func TestObserverCoverage(t *testing.T) {
	obs := &phaseCount{}
	s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: 3})
	defer s.Close()
	s.Probe = obs
	const steps = 4
	s.Run(steps)
	want := int64(steps * (2 + 2*s.Threads()))
	if got := obs.calls.Load(); got != want {
		t.Fatalf("observer calls = %d, want %d", got, want)
	}
}

func TestRejectsBadTau(t *testing.T) {
	if _, err := NewSolver(Config{Config: core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.4}, Threads: 2}); err == nil {
		t.Fatal("accepted tau <= 0.5")
	}
}
