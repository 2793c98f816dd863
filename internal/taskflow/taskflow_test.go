package taskflow

import (
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
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

func tfConfig(sheet *fiber.Sheet, workers int) Config {
	return Config{Config: refConfig(sheet), CubeSize: 4, Workers: workers}
}

// The headline property: because spreading runs as one task and all cube
// tasks write disjoint data, the task-scheduled solver is bitwise equal to
// the sequential reference at any worker count.
func TestBitwiseEqualsSequential(t *testing.T) {
	const steps = 10
	ref := core.MustNewSolver(refConfig(testSheet()))
	ref.Run(steps)
	for _, workers := range []int{1, 2, 4, 8} {
		s, err := NewSolver(tfConfig(testSheet(), workers))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(steps)
		g := s.Fluid.ToGrid()
		for i := range ref.Fluid.Macros() {
			if ref.Fluid.Dist(ref.Fluid.Cur())[i] != g.Dist(g.Cur())[i] {
				t.Fatalf("workers=%d: node %d DF differs bitwise", workers, i)
			}
			if ref.Fluid.Macros()[i].Vel != g.Macros()[i].Vel {
				t.Fatalf("workers=%d: node %d Vel differs bitwise", workers, i)
			}
		}
		for i := range ref.Sheet().X {
			if ref.Sheet().X[i] != s.Sheet().X[i] {
				t.Fatalf("workers=%d: fiber node %d differs bitwise", workers, i)
			}
		}
	}
}

func TestFluidOnlyMatchesSequential(t *testing.T) {
	const steps = 12
	refCfg := core.Config{NX: 16, NY: 16, NZ: 16, Tau: 0.8, BodyForce: [3]float64{1e-4, 0, 0}}
	ref := core.MustNewSolver(refCfg)
	ref.Run(steps)
	s, err := NewSolver(Config{Config: refCfg, CubeSize: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	d, err := validate.Grids(ref.Fluid, s.Fluid.ToGrid())
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxAbs != 0 {
		t.Fatalf("fluid-only taskflow differs: %v", d)
	}
}

func TestBounceBackMatchesSequential(t *testing.T) {
	const steps = 15
	refCfg := core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.8, BCZ: core.BounceBack,
		BodyForce: [3]float64{1e-4, 0, 0}}
	ref := core.MustNewSolver(refCfg)
	ref.Run(steps)
	s, err := NewSolver(Config{Config: refCfg, CubeSize: 4, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	d, err := validate.Grids(ref.Fluid, s.Fluid.ToGrid())
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxAbs != 0 {
		t.Fatalf("bounce-back taskflow differs: %v", d)
	}
}

// Multi-batch runs must behave like one long run (the scheduler's frontier
// state survives across Run calls).
func TestRunBatchesEquivalent(t *testing.T) {
	a, err := NewSolver(tfConfig(testSheet(), 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSolver(tfConfig(testSheet(), 4))
	if err != nil {
		t.Fatal(err)
	}
	a.Run(9)
	b.Run(2)
	b.Run(3)
	b.Run(4)
	if a.StepCount() != 9 || b.StepCount() != 9 {
		t.Fatalf("step counts %d, %d", a.StepCount(), b.StepCount())
	}
	ga, gb := a.Fluid.ToGrid(), b.Fluid.ToGrid()
	for i := range ga.Macros() {
		if ga.Dist(ga.Cur())[i] != gb.Dist(gb.Cur())[i] {
			t.Fatalf("batched run differs at node %d", i)
		}
	}
}

func TestMassConserved(t *testing.T) {
	s, err := NewSolver(tfConfig(testSheet(), 4))
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.Fluid.TotalMass()
	s.Run(20)
	if m1 := s.Fluid.TotalMass(); math.Abs(m1-m0) > 1e-9*m0 {
		t.Fatalf("mass drifted %g -> %g", m0, m1)
	}
}

func TestFixedNodesRespected(t *testing.T) {
	sh := testSheet()
	sh.FixRegion(1.5)
	s, err := NewSolver(tfConfig(sh, 4))
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]fiber.Vec3(nil), sh.X...)
	s.Run(15)
	for i, fx := range sh.Fixed {
		if fx && sh.X[i] != orig[i] {
			t.Fatalf("fixed node %d moved", i)
		}
	}
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := NewSolver(Config{Config: core.Config{NX: 10, NY: 16, NZ: 16, Tau: 0.7}, CubeSize: 4}); err == nil {
		t.Fatal("indivisible cube size accepted")
	}
	if _, err := NewSolver(Config{Config: core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.3}, CubeSize: 4}); err == nil {
		t.Fatal("bad tau accepted")
	}
}

func TestZeroAndNegativeRun(t *testing.T) {
	s, err := NewSolver(tfConfig(nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	s.Run(-3)
	if s.StepCount() != 0 {
		t.Fatalf("StepCount = %d after no-op runs", s.StepCount())
	}
}

// The influence set must cover every cube the sheet actually touches:
// perturb the sheet toward a domain corner and verify the spread force
// landed only inside influenced cubes.
func TestInfluenceSetCoversSpread(t *testing.T) {
	sh := testSheet()
	s, err := NewSolver(tfConfig(sh, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1)
	infl := s.influence[0] // step 0's set
	l := s.Fluid
	for x := 0; x < l.NX; x++ {
		for y := 0; y < l.NY; y++ {
			for z := 0; z < l.NZ; z++ {
				f := l.At(x, y, z).Force
				// Subtract the uniform body force.
				f[0] -= s.BodyForce[0]
				if f != ([3]float64{}) {
					cx, cy, cz := l.CubeOf(x, y, z)
					if !infl[l.CubeIndex(cx, cy, cz)] {
						t.Fatalf("spread touched uninfluenced cube (%d,%d,%d)", cx, cy, cz)
					}
				}
			}
		}
	}
}

func BenchmarkTaskflowStep(b *testing.B) {
	s, err := NewSolver(tfConfig(testSheet(), 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
