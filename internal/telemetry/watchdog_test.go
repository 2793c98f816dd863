package telemetry

import (
	"errors"
	"math"
	"strings"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// digestOf digests g into 4³ tiles, the tiling the facade gives the slab
// engines, for a watchdog check.
func digestOf(t *testing.T, g *grid.Grid) *grid.DigestGrid {
	t.Helper()
	d, err := grid.NewDigestGrid(g.NX, g.NY, g.NZ, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWatchdogFlagsNaNAtExactStep seeds a NaN into one node's
// distribution mid-run and asserts the watchdog latches the failure at
// exactly the step the contamination appears, not before and not after.
func TestWatchdogFlagsNaNAtExactStep(t *testing.T) {
	s := core.MustNewSolver(core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0}})
	wd := NewWatchdog(WatchdogConfig{})

	for step := 1; step <= 4; step++ {
		s.Step()
		if err := wd.Check(step, digestOf(t, s.Fluid)); err != nil {
			t.Fatalf("healthy run flagged at step %d: %v", step, err)
		}
	}
	// Poison one distribution entry; the next collision/moment update
	// would spread it, but the watchdog must already see the mass sum go
	// non-finite on the very step it appears.
	s.Fluid.Dist(s.Fluid.Cur())[123][5] = math.NaN()
	s.Fluid.Macros()[200].Vel[1] = math.NaN()

	err := wd.Check(5, digestOf(t, s.Fluid))
	if err == nil {
		t.Fatal("watchdog missed the injected NaN")
	}
	var he *HealthError
	if !errors.As(err, &he) {
		t.Fatalf("got %T, want *HealthError", err)
	}
	if he.Step != 5 {
		t.Fatalf("flagged at step %d, want 5", he.Step)
	}
	if wd.Healthy() || wd.FailStep() != 5 {
		t.Fatalf("latch state: healthy=%v failStep=%d", wd.Healthy(), wd.FailStep())
	}
	// The failure stays latched with the original step even if the state
	// is checked again later.
	if err2 := wd.Check(6, digestOf(t, s.Fluid)); !errors.Is(err2, err) || wd.FailStep() != 5 {
		t.Fatalf("latched error changed on re-check: %v (failStep=%d)", err2, wd.FailStep())
	}
}

// TestWatchdogHealthy16Cubed runs a real 16³ simulation with an immersed
// sheet and asserts the default mass-drift tolerance passes every step.
func TestWatchdogHealthy16Cubed(t *testing.T) {
	sheet := fiber.NewSheet(fiber.Params{
		NumFibers: 8, NodesPerFiber: 8, Width: 3.2, Height: 3.2,
		Origin: fiber.Vec3{4, 6, 6}, Ks: 0.05, Kb: 0.001,
	})
	s := core.MustNewSolver(core.Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{2e-5, 0, 0}, Sheet: sheet})
	wd := NewWatchdog(WatchdogConfig{})
	for step := 1; step <= 20; step++ {
		s.Step()
		if err := wd.Check(step, digestOf(t, s.Fluid)); err != nil {
			t.Fatalf("healthy 16³ run flagged at step %d: %v", step, err)
		}
	}
	if !wd.Healthy() || wd.FailStep() != -1 || wd.Checks() != 20 {
		t.Fatalf("healthy=%v failStep=%d checks=%d", wd.Healthy(), wd.FailStep(), wd.Checks())
	}
}

func TestWatchdogMassDrift(t *testing.T) {
	g := grid.New(4, 4, 4)
	wd := NewWatchdog(WatchdogConfig{MassDriftTol: 1e-6})
	if err := wd.Check(0, digestOf(t, g)); err != nil {
		t.Fatal(err)
	}
	// Inject 1% extra mass into one node.
	g.Dist(g.Cur())[0][0] += 0.01 * g.TotalMass()
	err := wd.Check(1, digestOf(t, g))
	if err == nil || !strings.Contains(err.Error(), "mass drifted") {
		t.Fatalf("drift not flagged: %v", err)
	}
	if wd.FailStep() != 1 {
		t.Fatalf("failStep = %d, want 1", wd.FailStep())
	}
}

func TestWatchdogVelocityLimit(t *testing.T) {
	g := grid.New(4, 4, 4)
	wd := NewWatchdog(WatchdogConfig{MaxVelocity: 0.1})
	g.Macros()[7].Vel = [3]float64{0.2, 0, 0}
	err := wd.Check(3, digestOf(t, g))
	if err == nil || !strings.Contains(err.Error(), "max speed") {
		t.Fatalf("speed not flagged: %v", err)
	}
}

func TestWatchdogGauges(t *testing.T) {
	r := NewRegistry()
	g := grid.New(4, 4, 4)
	wd := NewWatchdog(WatchdogConfig{Registry: r})
	if err := wd.Check(0, digestOf(t, g)); err != nil {
		t.Fatal(err)
	}
	if mass := r.Gauge("lbmib_mass", "").Value(); math.Abs(mass-g.TotalMass()) > 1e-12 {
		t.Fatalf("mass gauge = %g, want %g", mass, g.TotalMass())
	}
	if r.Gauge("lbmib_unhealthy", "").Value() != 0 {
		t.Fatal("healthy run has unhealthy gauge set")
	}
	g.Macros()[0].Rho = math.Inf(1)
	wd.Check(1, digestOf(t, g)) //nolint:errcheck // latched below
	if r.Gauge("lbmib_unhealthy", "").Value() != 1 {
		t.Fatal("unhealthy gauge not raised")
	}
}

// TestWatchdogLocalizesViolation asserts the latched HealthError carries
// the offending cell, its cube, and the attributed phase, and that the
// labeled lbmib_unhealthy_cube gauge appears.
func TestWatchdogLocalizesViolation(t *testing.T) {
	r := NewRegistry()
	g := grid.New(8, 8, 8)
	wd := NewWatchdog(WatchdogConfig{Registry: r})
	g.At(5, 6, 7).Rho = math.NaN()
	err := wd.Check(2, digestOf(t, g))
	var he *HealthError
	if !errors.As(err, &he) {
		t.Fatalf("got %T (%v), want *HealthError", err, err)
	}
	if !he.HasCell || he.Cell != ([3]int{5, 6, 7}) {
		t.Fatalf("Cell = %v (has=%v), want {5,6,7}", he.Cell, he.HasCell)
	}
	wantCube := (1*2+1)*2 + 1 // tile (1,1,1) of the 2×2×2 tile grid
	if he.Cube != wantCube || he.CubeSize != 4 {
		t.Fatalf("Cube = %d (size %d), want %d (size 4)", he.Cube, he.CubeSize, wantCube)
	}
	if he.Phase != "update_velocity" {
		t.Fatalf("Phase = %q, want update_velocity", he.Phase)
	}
	if !strings.Contains(he.Reason, "(5,6,7)") {
		t.Fatalf("Reason %q does not name the cell", he.Reason)
	}
	got := r.Gauge("lbmib_unhealthy_cube", "",
		L("cube", "7"), L("phase", "update_velocity"), L("cell", "5,6,7")).Value()
	if got != 1 {
		t.Fatalf("lbmib_unhealthy_cube = %g, want 1", got)
	}
}

// TestWatchdogSpeedViolationNamesCell asserts the argmax-velocity cell
// is attached to speed-limit violations.
func TestWatchdogSpeedViolationNamesCell(t *testing.T) {
	g := grid.New(8, 8, 8)
	wd := NewWatchdog(WatchdogConfig{MaxVelocity: 0.1})
	g.At(1, 2, 3).Vel = [3]float64{0.2, 0, 0}
	err := wd.Check(1, digestOf(t, g))
	var he *HealthError
	if !errors.As(err, &he) {
		t.Fatalf("got %T, want *HealthError", err)
	}
	if !he.HasCell || he.Cell != ([3]int{1, 2, 3}) || he.Phase != "update_velocity" {
		t.Fatalf("Cell=%v has=%v Phase=%q", he.Cell, he.HasCell, he.Phase)
	}
	if he.Cube != 0 {
		t.Fatalf("Cube = %d, want 0", he.Cube)
	}
}

// TestWatchdogDriftNamesWorstCube asserts mass-drift violations name the
// cube whose mass moved furthest from the reference.
func TestWatchdogDriftNamesWorstCube(t *testing.T) {
	g := grid.New(8, 8, 8)
	wd := NewWatchdog(WatchdogConfig{MassDriftTol: 1e-6})
	if err := wd.Check(0, digestOf(t, g)); err != nil {
		t.Fatal(err)
	}
	g.Dist(g.Cur())[g.Idx(6, 6, 6)][0] += 1.0 // inject mass into tile (1,1,1)
	err := wd.Check(1, digestOf(t, g))
	var he *HealthError
	if !errors.As(err, &he) {
		t.Fatalf("got %T, want *HealthError", err)
	}
	if he.Cube != 7 || he.HasCell || he.Phase != "collide_stream" {
		t.Fatalf("Cube=%d has=%v Phase=%q, want cube 7, no cell, collide_stream", he.Cube, he.HasCell, he.Phase)
	}
}

// TestWatchdogCheckDigest checks a digest filled by another pass, as the
// facade hands the watchdog the step's one sample.
func TestWatchdogCheckDigest(t *testing.T) {
	g := grid.New(8, 8, 8)
	g.Dist(g.Cur())[g.Idx(0, 0, 1)][3] = math.NaN()
	d, err := grid.NewDigestGrid(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(WatchdogConfig{})
	herr := wd.Check(3, d)
	var he *HealthError
	if !errors.As(herr, &he) {
		t.Fatalf("got %T, want *HealthError", herr)
	}
	if he.Step != 3 || !he.HasCell || he.Cell != ([3]int{0, 0, 1}) || he.Phase != "collide_stream" {
		t.Fatalf("digest check mislocalized: %+v", he)
	}
	if wd.Healthy() {
		t.Fatal("Check did not latch")
	}
}

// TestWatchdogDigestNamesField: a digest keeps its first bad node's ρ and
// u, so the watchdog names the field that broke and the phase computing
// it — the same Reason and Phase whichever sink the run feeds.
func TestWatchdogDigestNamesField(t *testing.T) {
	for _, tc := range []struct {
		name        string
		poison      func(df *[lattice.Q]float64, m *grid.Macro)
		what, phase string
	}{
		{"rho", func(_ *[lattice.Q]float64, m *grid.Macro) { m.Rho = math.NaN() }, "rho=NaN", "update_velocity"},
		{"u", func(_ *[lattice.Q]float64, m *grid.Macro) { m.Vel[2] = math.Inf(-1) }, "u=(0,0,-Inf)", "update_velocity"},
		{"distributions", func(df *[lattice.Q]float64, _ *grid.Macro) { df[7] = math.NaN() }, "non-finite distribution mass", "collide_stream"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := grid.New(8, 8, 8)
			tc.poison(&g.Dist(g.Cur())[g.Idx(3, 4, 5)], g.At(3, 4, 5))
			wd := NewWatchdog(WatchdogConfig{})
			var he *HealthError
			if err := wd.Check(1, digestOf(t, g)); !errors.As(err, &he) {
				t.Fatalf("got %T (%v), want *HealthError", err, err)
			}
			if want := "at node (3,4,5): " + tc.what; !strings.HasSuffix(he.Reason, want) || he.Phase != tc.phase {
				t.Fatalf("Reason %q, Phase %q; want ...%q in %s", he.Reason, he.Phase, want, tc.phase)
			}
		})
	}
}
