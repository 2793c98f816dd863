package cubesolver

import (
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/validate"
)

func testSheet() *fiber.Sheet {
	return fiber.NewSheet(fiber.Params{
		NumFibers: 8, NodesPerFiber: 8, Width: 7, Height: 7,
		Origin: fiber.Vec3{6, 4.3, 4.6}, Ks: 0.05, Kb: 0.001,
	})
}

func refConfig(sheet *fiber.Sheet) core.Config {
	return core.Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{3e-5, 0, 0},
		Sheet:     sheet,
	}
}

func cubeConfig(sheet *fiber.Sheet, threads, k int) Config {
	return Config{Config: refConfig(sheet), CubeSize: k, Threads: threads}
}

// The central correctness property: the cube solver reproduces the
// sequential solver bit for bit for any thread count and cube size.
func TestMatchesSequential(t *testing.T) {
	const steps = 12
	ref := core.MustNewSolver(refConfig(testSheet()))
	ref.Run(steps)

	for _, threads := range []int{1, 2, 4, 8} {
		for _, k := range []int{4, 8, 16} {
			s, err := NewSolver(cubeConfig(testSheet(), threads, k))
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
}

func TestSingleThreadBitwiseEqualsSequential(t *testing.T) {
	const steps = 8
	ref := core.MustNewSolver(refConfig(testSheet()))
	ref.Run(steps)
	s, err := NewSolver(cubeConfig(testSheet(), 1, 4))
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
}

func TestBounceBackMatchesSequential(t *testing.T) {
	refCfg := core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.8, BCZ: core.BounceBack,
		BodyForce: [3]float64{1e-4, 0, 0}}
	ref := core.MustNewSolver(refCfg)
	ref.Run(15)
	s, err := NewSolver(Config{Config: refCfg, CubeSize: 4, Threads: 4})
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
}

func TestMassConserved(t *testing.T) {
	s, err := NewSolver(cubeConfig(testSheet(), 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m0 := s.Fluid.TotalMass()
	s.Run(20)
	if m1 := s.Fluid.TotalMass(); math.Abs(m1-m0) > 1e-9*m0 {
		t.Fatalf("mass drifted: %g -> %g", m0, m1)
	}
}

func TestRejectsIndivisibleCubeSize(t *testing.T) {
	if _, err := NewSolver(Config{Config: core.Config{NX: 10, NY: 16, NZ: 16, Tau: 0.7}, CubeSize: 4, Threads: 2}); err == nil {
		t.Fatal("accepted NX not divisible by cube size")
	}
}

func TestRejectsBadTau(t *testing.T) {
	if _, err := NewSolver(Config{Config: core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.4}, CubeSize: 4}); err == nil {
		t.Fatal("accepted tau <= 0.5")
	}
}

func TestStepCountAndStep(t *testing.T) {
	s, err := NewSolver(cubeConfig(nil, 2, 4))
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

// A fixed sheet region must behave identically in the cube solver.
func TestFixedNodesMatchSequential(t *testing.T) {
	mk := func() *fiber.Sheet {
		sh := testSheet()
		sh.FixRegion(1.5)
		return sh
	}
	ref := core.MustNewSolver(refConfig(mk()))
	ref.Run(10)
	s, err := NewSolver(cubeConfig(mk(), 4, 4))
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
	s, err := NewSolver(cubeConfig(testSheet(), 1, 4))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// A moving-lid cavity with an immersed sheet exercises the Ladd
// bounce-back correction through the in-place streaming path; the match
// is bitwise on the distributions.
func TestMovingLidFSIBitwiseSequential(t *testing.T) {
	mkRef := func() core.Config {
		cfg := refConfig(testSheet())
		cfg.BodyForce = [3]float64{0, 0, 0}
		cfg.BCZ = core.BounceBack
		cfg.LidVelocity = [3]float64{0.03, 0, 0}
		return cfg
	}
	const steps = 15
	ref := core.MustNewSolver(mkRef())
	ref.Run(steps)
	cfg := cubeConfig(testSheet(), 1, 4)
	cfg.BodyForce = [3]float64{0, 0, 0}
	cfg.BCZ = core.BounceBack
	cfg.LidVelocity = [3]float64{0.03, 0, 0}
	s, err := NewSolver(cfg)
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
	s, err := NewSolver(Config{Config: mk, CubeSize: 4, Threads: 4})
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

// toSlab copies a grid of cubes into a slab grid, whose node order is
// the sequential reference's.
func toSlab(l *grid.Grid) *grid.Grid {
	g := grid.New(l.NX, l.NY, l.NZ)
	if err := g.CopyFrom(l); err != nil {
		panic(err)
	}
	return g
}
