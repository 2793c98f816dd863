package engine

import (
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/perfmon"
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

// mustOpenMP is NewOpenMP for configurations known valid.
func mustOpenMP(cfg core.Config, threads int) *Solver {
	s, err := NewOpenMP(cfg, threads)
	if err != nil {
		panic(err)
	}
	return s
}

// toSlab copies a grid of cubes into a slab grid, whose node order is
// the sequential reference's.
func toSlab(l *grid.Grid) *grid.Grid {
	g := grid.New(l.NX, l.NY, l.NZ)
	if err := g.CopyFrom(l); err != nil {
		panic(err)
	}
	return g
}

// The central correctness property: both schedules reproduce the
// sequential solver's state bit for bit at any thread count (and, on
// cubes, any cube size).
func TestMatchesSequential(t *testing.T) {
	const steps = 12
	ref := core.MustNewSolver(baseConfig(testSheet()))
	ref.Run(steps)

	t.Run("omp", func(t *testing.T) {
		for _, threads := range []int{1, 2, 3, 4, 8} {
			s := mustOpenMP(baseConfig(testSheet()), threads)
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
	})
	t.Run("cube", func(t *testing.T) {
		for _, threads := range []int{1, 2, 4, 8} {
			for _, k := range []int{4, 8, 16} {
				s, err := NewCube(baseConfig(testSheet()), k, threads)
				if err != nil {
					t.Fatal(err)
				}
				s.Run(steps)
				gd, err := validate.GridsPhysics(ref.Fluid, toSlab(s.Live()))
				if err != nil {
					t.Fatal(err)
				}
				if !gd.Within(0) {
					t.Fatalf("threads=%d k=%d fluid diverges: %v", threads, k, gd)
				}
				sd, err := validate.Sheets(ref.Sheet(), s.Sheet())
				if err != nil {
					t.Fatal(err)
				}
				if !sd.Within(0) {
					t.Fatalf("threads=%d k=%d sheet diverges: %v", threads, k, sd)
				}
				s.Close()
			}
		}
	})
}

func TestSingleThreadBitwiseEqualsSequential(t *testing.T) {
	const steps = 8
	ref := core.MustNewSolver(baseConfig(testSheet()))
	ref.Run(steps)
	t.Run("omp", func(t *testing.T) {
		s := mustOpenMP(baseConfig(testSheet()), 1)
		defer s.Close()
		s.Run(steps)
		for i := range ref.Fluid.Macros() {
			if ref.Fluid.Dist()[i] != s.Live().Dist()[i] {
				t.Fatalf("node %d DF differs bitwise at 1 thread", i)
			}
		}
		for i := range ref.Sheet().X {
			if ref.Sheet().X[i] != s.Sheet().X[i] {
				t.Fatalf("fiber node %d position differs bitwise at 1 thread", i)
			}
		}
	})
	t.Run("cube", func(t *testing.T) {
		s, err := NewCube(baseConfig(testSheet()), 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Run(steps)
		g := toSlab(s.Live())
		for i := range ref.Fluid.Macros() {
			if ref.Fluid.Dist()[i] != g.Dist()[i] {
				t.Fatalf("node %d DF differs bitwise at 1 thread", i)
			}
		}
		for i := range ref.Sheet().X {
			if ref.Sheet().X[i] != s.Sheet().X[i] {
				t.Fatalf("fiber node %d position differs bitwise", i)
			}
		}
	})
}

func TestMassConserved(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func() (*Solver, error)
	}{
		{"omp", func() (*Solver, error) { return NewOpenMP(baseConfig(testSheet()), 4) }},
		{"cube", func() (*Solver, error) { return NewCube(baseConfig(testSheet()), 4, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.new()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			m0 := s.Fluid.TotalMass()
			s.Run(20)
			if m1 := s.Fluid.TotalMass(); math.Abs(m1-m0) > 1e-9*m0 {
				t.Fatalf("mass drifted: %g -> %g", m0, m1)
			}
		})
	}
}

func TestFluidOnlyRun(t *testing.T) {
	s := mustOpenMP(baseConfig(nil), 3)
	defer s.Close()
	s.Run(5)
	if s.StepCount() != 5 {
		t.Fatalf("StepCount = %d", s.StepCount())
	}
	// Uniform body force on periodic box accelerates uniformly.
	v := s.Live().At(3, 3, 3).Vel[0]
	if v <= 0 {
		t.Fatalf("body force produced no flow: u_x = %g", v)
	}
}

// Fluid-only, so the multithreaded run is deterministic. On the OpenMP
// schedule it must equal the sequential reference bitwise: streaming in
// place, which retires kernel 9, has to be arithmetically invisible
// against the second array and the published per-node copy the reference
// keeps. The two step counts end on different phases of the array (even:
// natural, odd: swapped, then canonicalized by Live).
func TestBounceBackMatchesSequential(t *testing.T) {
	t.Run("omp", func(t *testing.T) {
		cfg := core.Config{
			NX: 8, NY: 8, NZ: 8, Tau: 0.8, BCZ: core.BounceBack,
			BodyForce:   [3]float64{1e-4, 0, 0},
			LidVelocity: [3]float64{0.02, 0, 0},
		}
		for _, steps := range []int{14, 15} {
			ref := core.MustNewSolver(cfg)
			ref.Run(steps)
			s := mustOpenMP(cfg, 4)
			s.Run(steps)
			if want := steps%2 == 1; s.Swapped() != want {
				t.Fatalf("steps=%d: array swapped = %v, want %v", steps, s.Swapped(), want)
			}
			g := s.Live()
			for i := range ref.Fluid.Macros() {
				na, nb := &ref.Fluid.Macros()[i], &g.Macros()[i]
				if ref.Fluid.Dist()[i] != g.Dist()[i] {
					t.Fatalf("steps=%d: node %d DF differs bitwise from sequential", steps, i)
				}
				if na.Vel != nb.Vel || na.Rho != nb.Rho {
					t.Fatalf("steps=%d: node %d moments differ bitwise from sequential", steps, i)
				}
			}
			s.Close()
		}
	})
	t.Run("cube", func(t *testing.T) {
		refCfg := core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.8, BCZ: core.BounceBack,
			BodyForce: [3]float64{1e-4, 0, 0}}
		ref := core.MustNewSolver(refCfg)
		ref.Run(15)
		s, err := NewCube(refCfg, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Run(15)
		d, err := validate.Grids(ref.Fluid, toSlab(s.Live()))
		if err != nil {
			t.Fatal(err)
		}
		if !d.Within(validate.DefaultTol) {
			t.Fatalf("bounce-back cube run diverges: %v", d)
		}
	})
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

// Fluid-only, the OpenMP schedule's one-region step is bitwise identical
// to the sequential reference at every thread count — periodic, walled
// and moving-lid alike; the cavity's lid corners mix the Ladd
// momentum-exchange term with two side walls, the hardest boundary nodes.
// Thread counts above NX exercise the clamp; tiny grids give chunks of
// one plane, whose in-place stream writes into both neighbours' chunks.
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
			s := mustOpenMP(tc.cfg, threads)
			s.Run(steps)
			requireBitwiseFluid(t, ref, s, tc.name)
			s.Close()
		}
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

	s := mustOpenMP(cfg, 3)
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

func TestRejectsBadTau(t *testing.T) {
	bad := core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.4}
	t.Run("omp", func(t *testing.T) {
		if _, err := NewOpenMP(bad, 2); err == nil {
			t.Fatal("accepted tau <= 0.5")
		}
	})
	t.Run("cube", func(t *testing.T) {
		if _, err := NewCube(bad, 4, 0); err == nil {
			t.Fatal("accepted tau <= 0.5")
		}
	})
}

func TestRejectsIndivisibleCubeSize(t *testing.T) {
	if _, err := NewCube(core.Config{NX: 10, NY: 16, NZ: 16, Tau: 0.7}, 4, 2); err == nil {
		t.Fatal("accepted NX not divisible by cube size")
	}
}

func TestStepCountAndStep(t *testing.T) {
	s, err := NewCube(baseConfig(nil), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Step()
	s.Run(3)
	s.Run(0)
	if s.StepCount() != 4 {
		t.Fatalf("StepCount = %d, want 4", s.StepCount())
	}
}

func TestPhaseNames(t *testing.T) {
	want := map[core.Phase]string{
		core.PhaseFibersForce:    "fiber_force_spread",
		core.PhaseCollideStream:  "collide_stream",
		core.PhaseUpdateVelocity: "update_velocity",
		core.PhaseMoveFibers:     "move_fibers",
		core.PhaseCopy:           "swap_distribution",
	}
	for p, n := range want {
		if p.String() != n {
			t.Fatalf("phase %d name %q, want %q", p, p.String(), n)
		}
	}
	if core.Phase(0).String() != "unknown_phase" {
		t.Fatal("phase 0 must be unknown")
	}
}

// A fixed sheet region must behave identically on cubes.
func TestFixedNodesMatchSequential(t *testing.T) {
	mk := func() *fiber.Sheet {
		sh := testSheet()
		sh.FixRegion(1.5)
		return sh
	}
	ref := core.MustNewSolver(baseConfig(mk()))
	ref.Run(10)
	s, err := NewCube(baseConfig(mk()), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(10)
	sd, err := validate.Sheets(ref.Sheet(), s.Sheet())
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Within(0) {
		t.Fatalf("fixed-region sheet diverges: %v", sd)
	}
}

func BenchmarkCubeStep16k4(b *testing.B) {
	s, err := NewCube(baseConfig(testSheet()), 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// movingLidConfig is a moving-lid cavity around the test sheet, which
// exercises the Ladd bounce-back correction through the in-place
// streaming path.
func movingLidConfig() core.Config {
	cfg := baseConfig(testSheet())
	cfg.BodyForce = [3]float64{0, 0, 0}
	cfg.BCZ = core.BounceBack
	cfg.LidVelocity = [3]float64{0.03, 0, 0}
	return cfg
}

// A moving-lid cavity with an immersed sheet on the OpenMP schedule.
func TestMovingLidFSIMatchesSequential(t *testing.T) {
	const steps = 15
	ref := core.MustNewSolver(movingLidConfig())
	ref.Run(steps)
	s := mustOpenMP(movingLidConfig(), 4)
	defer s.Close()
	s.Run(steps)
	// Compare the live fields only. Between steps Force is dead state
	// (kernel 4 rebuilds it from the sheet) and the conventions differ:
	// this solver parks Force at BodyForce after the update-velocity fold,
	// the sequential reference leaves last step's spread forces in place.
	const tol = 1e-9
	g := s.Live()
	for i := range ref.Fluid.Macros() {
		na, nb := &ref.Fluid.Macros()[i], &g.Macros()[i]
		dfa, dfb := &ref.Fluid.Dist()[i], &g.Dist()[i]
		for q := range dfa {
			if math.Abs(dfa[q]-dfb[q]) > tol {
				t.Fatalf("node %d df[%d] diverges: %g vs %g", i, q, dfa[q], dfb[q])
			}
		}
		for d := 0; d < 3; d++ {
			if math.Abs(na.Vel[d]-nb.Vel[d]) > tol {
				t.Fatalf("node %d velocity diverges: %v vs %v", i, na.Vel, nb.Vel)
			}
		}
		if math.Abs(na.Rho-nb.Rho) > tol {
			t.Fatalf("node %d density diverges: %g vs %g", i, na.Rho, nb.Rho)
		}
	}
	sd, err := validate.Sheets(ref.Sheet(), s.Sheet())
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Within(validate.DefaultTol) {
		t.Fatalf("moving-lid sheet diverges: %v", sd)
	}
}

// The same cavity on one worker's cubes; the match is bitwise on the
// distributions.
func TestMovingLidFSIBitwiseSequential(t *testing.T) {
	const steps = 15
	ref := core.MustNewSolver(movingLidConfig())
	ref.Run(steps)
	s, err := NewCube(movingLidConfig(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(steps)
	g := toSlab(s.Live())
	for i := range ref.Fluid.Macros() {
		if ref.Fluid.Dist()[i] != g.Dist()[i] {
			t.Fatalf("node %d DF differs bitwise under the moving lid", i)
		}
	}
	for i := range ref.Sheet().X {
		if ref.Sheet().X[i] != s.Sheet().X[i] {
			t.Fatalf("fiber node %d position differs bitwise", i)
		}
	}
}

// Pins the corner node adjacent to the moving lid — the spot where the
// shared boundary resolver must apply the periodic wrap in x and y AND
// the Ladd lid correction in z in the same stream. Fluid-only, so the
// 4-thread run is deterministic and the pin can be bitwise.
func TestMovingLidCornerNodeBitwise(t *testing.T) {
	mk := core.Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.8, BCZ: core.BounceBack,
		BodyForce:   [3]float64{1e-4, 0, 0},
		LidVelocity: [3]float64{0.05, 0.01, 0},
	}
	const steps = 20
	ref := core.MustNewSolver(mk)
	ref.Run(steps)
	s, err := NewCube(mk, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(steps)
	g := toSlab(s.Live())
	corner := ref.Fluid.Idx(0, 0, 7) // touches the lid, wraps in x and y
	if ref.Fluid.Dist()[corner] != g.Dist()[corner] {
		t.Fatalf("corner node under the lid differs bitwise:\nseq  %v\ncube %v",
			ref.Fluid.Dist()[corner], g.Dist()[corner])
	}
	if ref.Fluid.Macros()[corner].Vel != g.Macros()[corner].Vel {
		t.Fatal("corner node velocity differs under the lid")
	}
	// And the full grid, while we are here.
	for i := range ref.Fluid.Macros() {
		if ref.Fluid.Dist()[i] != g.Dist()[i] {
			t.Fatalf("node %d DF differs bitwise", i)
		}
	}
}

// TestObservedStepAllocatesNothingExtra pins the region-timing contract:
// the busy vector and the timed loop body live on the solver, so an
// OpenMP-schedule step with a probe attached allocates exactly what the
// same step allocates detached — whatever the number of parallel regions
// (a sheet adds spreading's) and whatever the team width. The probe is an
// empty fan-out, then a profile, whose region and step-ring bookkeeping
// must allocate nothing either.
func TestObservedStepAllocatesNothingExtra(t *testing.T) {
	for _, sheet := range []bool{false, true} {
		for _, threads := range []int{1, 2, 4} {
			var sh *fiber.Sheet
			if sheet {
				sh = testSheet()
			}
			s := mustOpenMP(baseConfig(sh), threads)
			s.Step()
			detached := testing.AllocsPerRun(5, s.Step)
			for _, probe := range []core.Probe{core.Probes{}, perfmon.NewProfile(perfmon.Config{Engine: "omp", Threads: threads})} {
				s.Probe = probe
				if observed := testing.AllocsPerRun(5, s.Step); observed != detached {
					t.Errorf("sheet=%v threads=%d probe=%T: observed step allocates %v, detached %v", sheet, threads, probe, observed, detached)
				}
			}
			s.Close()
		}
	}
}
