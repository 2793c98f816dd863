package omp

import (
	"math"
	"slices"
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

// The central correctness property: the OpenMP-style solver reproduces
// the sequential solver's state bit for bit at any thread count.
func TestMatchesSequential(t *testing.T) {
	const steps = 12
	ref := core.MustNewSolver(baseConfig(testSheet()))
	ref.Run(steps)

	for _, threads := range []int{1, 2, 3, 4, 8} {
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

func TestSingleThreadBitwiseEqualsSequential(t *testing.T) {
	const steps = 8
	ref := core.MustNewSolver(baseConfig(testSheet()))
	ref.Run(steps)
	s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: 1})
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
}

func TestMassConserved(t *testing.T) {
	s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: 4})
	defer s.Close()
	m0 := s.Fluid.TotalMass()
	s.Run(20)
	if m1 := s.Fluid.TotalMass(); math.Abs(m1-m0) > 1e-9*m0 {
		t.Fatalf("mass drifted: %g -> %g", m0, m1)
	}
}

func TestFluidOnlyRun(t *testing.T) {
	cfg := baseConfig(nil)
	s := MustNewSolver(Config{Config: cfg, Threads: 3})
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

// Fluid-only, so the multithreaded run is deterministic and must equal
// the sequential reference bitwise: streaming in place, which retires
// kernel 9, has to be arithmetically invisible against the second array
// and the published per-node copy the reference keeps. The two step
// counts end on different phases of the array (even: natural, odd:
// swapped, then canonicalized by Live).
func TestBounceBackMatchesSequential(t *testing.T) {
	cfg := core.Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.8, BCZ: core.BounceBack,
		BodyForce:   [3]float64{1e-4, 0, 0},
		LidVelocity: [3]float64{0.02, 0, 0},
	}
	for _, steps := range []int{14, 15} {
		ref := core.MustNewSolver(cfg)
		ref.Run(steps)
		s := MustNewSolver(Config{Config: cfg, Threads: 4})
		s.Run(steps)
		if want := steps%2 == 1; s.swapped != want {
			t.Fatalf("steps=%d: array swapped = %v, want %v", steps, s.swapped, want)
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
}

func TestRejectsBadTau(t *testing.T) {
	if _, err := NewSolver(Config{Config: core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.4}, Threads: 2}); err == nil {
		t.Fatal("accepted tau <= 0.5")
	}
}

// A moving-lid cavity with an immersed sheet exercises the Ladd
// bounce-back correction through the in-place streaming path.
func TestMovingLidFSIMatchesSequential(t *testing.T) {
	mk := func() core.Config {
		cfg := baseConfig(testSheet())
		cfg.BodyForce = [3]float64{0, 0, 0}
		cfg.BCZ = core.BounceBack
		cfg.LidVelocity = [3]float64{0.03, 0, 0}
		return cfg
	}
	const steps = 15
	ref := core.MustNewSolver(mk())
	ref.Run(steps)
	s := MustNewSolver(Config{Config: mk(), Threads: 4})
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

// TestObservedStepAllocatesNothingExtra pins the region-timing contract:
// the busy vector and the timed loop body live on the solver, so a step
// with a probe attached allocates exactly what the same step allocates
// detached — whatever the number of parallel regions (a sheet adds
// spreading's) and whatever the team width. The probe is an empty
// fan-out, then a profile, whose region and step-ring bookkeeping must
// allocate nothing either.
func TestObservedStepAllocatesNothingExtra(t *testing.T) {
	for _, sheet := range []bool{false, true} {
		for _, threads := range []int{1, 2, 4} {
			var sh *fiber.Sheet
			if sheet {
				sh = testSheet()
			}
			s := MustNewSolver(Config{Config: baseConfig(sh), Threads: threads})
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

// TestDigestOnTeamMatchesSerial: the digest split over the worker team
// (one contiguous range of tile rows per worker) is the grid's
// one-goroutine digest bit for bit, at 1–4 workers and at 5 and 6, more
// than the 16³ grid's four tile rows, in both phases (after an odd and
// an even number of steps), and with a NaN seeded between steps, before
// and after a step spreads it.
func TestDigestOnTeamMatchesSerial(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 4, 5, 6} {
		s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: threads})
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
		s.Fluid.At(9, 3, 14).Vel[1] = math.NaN()
		s.Fluid.Dist()[s.Fluid.Idx(2, 15, 7)][5] = math.Inf(-1)
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
