package lbmib

import (
	"math"
	"testing"
	"testing/quick"
)

// Running the same configuration twice reproduces it bit for bit on
// every engine: none of them sums across threads in an order the
// schedule could change (baseCfg has a sheet and Threads > 1).
func TestDeterministicReruns(t *testing.T) {
	for _, kind := range []SolverKind{Sequential, OpenMP, CubeBased} {
		run := func() ([3]float64, [][3]float64) {
			s, err := New(baseCfg(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Run(8)
			v := s.FluidVelocity(7, 9, 5)
			return v, s.SheetPositions()
		}
		v1, p1 := run()
		v2, p2 := run()
		if v1 != v2 {
			t.Fatalf("%v velocity not bitwise reproducible: %v vs %v", kind, v1, v2)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%v sheet position %d not bitwise reproducible", kind, i)
			}
		}
	}
}

// A long run must stay bounded: no NaNs, mass conserved, velocities below
// the incompressibility limit.
func TestLongHorizonStability(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	s, err := New(Config{
		NX: 24, NY: 24, NZ: 24, Tau: 0.7,
		BodyForce: [3]float64{2e-5, 0, 0},
		BoundaryZ: NoSlip,
		Sheet: &SheetConfig{
			NumFibers: 12, NodesPerFiber: 12, Width: 8, Height: 8,
			Origin: [3]float64{6, 8, 8}, Ks: 0.05, Kb: 0.001,
		},
		Solver: CubeBased, Threads: 4, CubeSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m0 := s.TotalMass()
	for i := 0; i < 10; i++ {
		s.Run(60)
		if v := s.MaxVelocity(); math.IsNaN(v) || v > 0.45 {
			t.Fatalf("unstable at step %d: maxU = %g", s.StepCount(), v)
		}
		for _, x := range s.SheetPositions() {
			for d := 0; d < 3; d++ {
				if math.IsNaN(x[d]) || math.IsInf(x[d], 0) {
					t.Fatalf("sheet position diverged at step %d", s.StepCount())
				}
			}
		}
	}
	if m1 := s.TotalMass(); math.Abs(m1-m0) > 1e-8*m0 {
		t.Fatalf("mass drifted over 600 steps: %g -> %g", m0, m1)
	}
}

// Property: for random admissible configurations the engines stay in
// agreement after several steps.
func TestEngineAgreementProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many solver pairs")
	}
	f := func(seed uint8) bool {
		// Derive a small random-but-valid configuration from the seed.
		n := 8 + int(seed%2)*8 // 8 or 16
		threads := 1 + int(seed%4)
		k := 4
		sheetN := 4 + int(seed%3)*2
		mk := func(kind SolverKind) *Simulation {
			s, err := New(Config{
				NX: n, NY: n, NZ: n, Tau: 0.65 + float64(seed%5)*0.05,
				BodyForce: [3]float64{float64(seed%7) * 1e-5, 0, 0},
				Sheet: &SheetConfig{
					NumFibers: sheetN, NodesPerFiber: sheetN,
					Width: float64(sheetN) - 1, Height: float64(sheetN) - 1,
					Origin: [3]float64{float64(n) / 3, float64(n) / 3, float64(n) / 3},
					Ks:     0.05, Kb: 0.001,
				},
				Solver: kind, Threads: threads, CubeSize: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		ref := mk(Sequential)
		defer ref.Close()
		cub := mk(CubeBased)
		defer cub.Close()
		ref.Run(5)
		cub.Run(5)
		rc, _ := ref.SheetCentroid()
		cc, _ := cub.SheetCentroid()
		for d := 0; d < 3; d++ {
			if math.Abs(rc[d]-cc[d]) > 1e-9 {
				return false
			}
		}
		rv := ref.FluidVelocity(n/2, n/2, n/2)
		cv := cub.FluidVelocity(n/2, n/2, n/2)
		for d := 0; d < 3; d++ {
			if math.Abs(rv[d]-cv[d]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Momentum input check through the facade: a forced periodic box gains
// fluid momentum linearly while the free sheet cannot create net force.
func TestGalileanSheetNeutrality(t *testing.T) {
	// Two identical boxes, one with a (flat, force-free) sheet: the fluid
	// fields must evolve identically because an undeformed free sheet
	// exerts zero elastic force.
	mkCfg := func(withSheet bool) Config {
		cfg := Config{NX: 12, NY: 12, NZ: 12, Tau: 0.7, BodyForce: [3]float64{1e-5, 0, 0}}
		if withSheet {
			cfg.Sheet = &SheetConfig{
				NumFibers: 6, NodesPerFiber: 6, Width: 5, Height: 5,
				Origin: [3]float64{4, 3.5, 3.5}, Ks: 0.05, Kb: 0.001,
			}
		}
		return cfg
	}
	a, err := New(mkCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(mkCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Run(6)
	b.Run(6)
	// With a uniform flow the sheet advects rigidly, stays undeformed,
	// and leaves the fluid untouched.
	va := a.FluidVelocity(6, 6, 6)
	vb := b.FluidVelocity(6, 6, 6)
	for d := 0; d < 3; d++ {
		if math.Abs(va[d]-vb[d]) > 1e-12 {
			t.Fatalf("undeformed free sheet changed the fluid: %v vs %v", va, vb)
		}
	}
}

// The cube engine must accept every divisible cube size and reject the
// rest, across a range of grids.
func TestCubeSizeAcceptanceProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := (int(nRaw)%6 + 2) * 4 // 8..28, multiple of 4
		k := int(kRaw)%12 + 1
		s, err := New(Config{NX: n, NY: n, NZ: n, Tau: 0.7, Solver: CubeBased, CubeSize: k})
		if n%k == 0 {
			if err != nil {
				return false
			}
			s.Close()
			return true
		}
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
