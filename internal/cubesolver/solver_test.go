package cubesolver

import (
	"math"
	"slices"
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
			gd, err := validate.GridsPhysics(ref.Fluid, s.Live().ToGrid())
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
	g := s.Live().ToGrid()
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
	d, err := validate.Grids(ref.Fluid, s.Live().ToGrid())
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
	g := s.Live().ToGrid()
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
	g := s.Live().ToGrid()
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

// TestDigestOnTeamMatchesSerial: the digest split over the worker team
// (one contiguous range of cubes per worker) is the layout's
// one-goroutine digest bit for bit, at 1–4 workers and on the odd
// meshes 3×1×1 and 3×3×1 beside 3×2×1, in both phases (after an odd and
// an even number of steps), and with a NaN seeded between steps, before
// and after a step spreads it.
func TestDigestOnTeamMatchesSerial(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 4, 6, 9} {
		s, err := NewSolver(cubeConfig(testSheet(), threads, 4))
		if err != nil {
			t.Fatal(err)
		}
		team, serial := newDigest(t), newDigest(t)
		check := func(when string) {
			t.Helper()
			if err := s.Digest(team); err != nil {
				t.Fatal(err)
			}
			if err := s.Fluid.Digest(serial); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(digestBits(team), digestBits(serial)) {
				t.Errorf("threads=%d %s: team digest %+v differs from the serial one %+v", threads, when, team, serial)
			}
		}
		s.Run(3)
		check("after 3 steps")
		s.Step()
		check("after 4 steps")
		s.Fluid.At(9, 3, 14).Rho = math.NaN()
		s.Fluid.Dist()[s.Fluid.Idx(2, 15, 7)][5] = math.Inf(1)
		check("with a NaN seeded")
		if serial.NonFinite != 2 {
			t.Fatalf("threads=%d: seeded digest counts %d non-finite nodes, want 2", threads, serial.NonFinite)
		}
		s.Step()
		check("a step after the NaN")
		s.Close()
	}
}

func newDigest(t *testing.T) *grid.DigestGrid {
	t.Helper()
	d, err := grid.NewDigestGrid(16, 16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// digestBits is every field of a digest, floats by their bits.
func digestBits(d *grid.DigestGrid) []uint64 {
	var b []uint64
	for _, td := range d.Tiles {
		b = append(b, math.Float64bits(td.Mass), math.Float64bits(td.MaxVel2), uint64(td.NonFinite))
	}
	b = append(b, math.Float64bits(d.Mass), math.Float64bits(d.MaxVel), uint64(d.NonFinite), math.Float64bits(d.BadRho))
	for a := 0; a < 3; a++ {
		b = append(b, uint64(d.MaxVelCell[a]), uint64(d.BadCell[a]), math.Float64bits(d.BadVel[a]))
	}
	return b
}
