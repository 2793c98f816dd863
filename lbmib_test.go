package lbmib

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"lbmib/internal/flightrec"
)

func sheetCfg() *SheetConfig {
	return &SheetConfig{
		NumFibers: 8, NodesPerFiber: 8, Width: 7, Height: 7,
		Origin: [3]float64{6, 4.3, 4.6}, Ks: 0.05, Kb: 0.001,
	}
}

func baseCfg(kind SolverKind) Config {
	return Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{3e-5, 0, 0},
		Sheet:     sheetCfg(),
		Solver:    kind,
		Threads:   3,
		CubeSize:  4,
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{NX: 0, NY: 8, NZ: 8},
		{NX: 8, NY: 8, NZ: 8, Tau: 0.4},
		{NX: 8, NY: 8, NZ: 8, Tau: 0.5}, // boundary: τ must strictly exceed 0.5
		{NX: 8, NY: 8, NZ: 8, Tau: math.NaN()},
		{NX: 8, NY: 8, NZ: 8, Tau: math.Inf(1)},
		{NX: 8, NY: 8, NZ: 8, Solver: SolverKind(9)},
		{NX: 8, NY: 8, NZ: 8, Sheet: &SheetConfig{NumFibers: 0, NodesPerFiber: 3}},
		{NX: 10, NY: 8, NZ: 8, Solver: CubeBased, CubeSize: 4}, // indivisible
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

// Every engine name round-trips through its parser, and unknown names
// are rejected with a hint.
func TestSolverKindRoundTrip(t *testing.T) {
	for _, k := range []SolverKind{Sequential, OpenMP, CubeBased} {
		got, err := ParseSolverKind(k.String())
		if err != nil {
			t.Fatalf("ParseSolverKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseSolverKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseSolverKind("mpi"); err == nil || !strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("unknown solver name accepted: %v", err)
	}
	if name := SolverKind(9).String(); !strings.Contains(name, "9") {
		t.Fatalf("out-of-range kind stringifies to %q", name)
	}
}

func TestViscosityDerivesTau(t *testing.T) {
	s, err := New(Config{NX: 4, NY: 4, NZ: 4, Viscosity: 1.0 / 6.0})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Config().Tau; math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("tau from viscosity = %g, want 1", got)
	}
}

func TestDefaultTau(t *testing.T) {
	s, err := New(Config{NX: 4, NY: 4, NZ: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Config().Tau != 0.6 {
		t.Fatalf("default tau = %g", s.Config().Tau)
	}
}

// The facade's parallel engines must produce the same physics as the
// sequential reference.
func TestEnginesAgree(t *testing.T) {
	const steps = 10
	ref, err := New(baseCfg(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Run(steps)
	refC, _ := ref.SheetCentroid()

	for _, kind := range []SolverKind{OpenMP, CubeBased} {
		s, err := New(baseCfg(kind))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(steps)
		c, _ := s.SheetCentroid()
		for d := 0; d < 3; d++ {
			if math.Abs(c[d]-refC[d]) > 1e-9 {
				t.Fatalf("%v centroid[%d] = %.15g, sequential %.15g", kind, d, c[d], refC[d])
			}
		}
		v := s.FluidVelocity(8, 8, 8)
		rv := ref.FluidVelocity(8, 8, 8)
		for d := 0; d < 3; d++ {
			if math.Abs(v[d]-rv[d]) > 1e-9 {
				t.Fatalf("%v velocity disagrees: %v vs %v", kind, v, rv)
			}
		}
		s.Close()
	}
}

func TestStepAndRunCount(t *testing.T) {
	s, err := New(baseCfg(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Step()
	s.Run(4)
	if s.StepCount() != 5 {
		t.Fatalf("StepCount = %d", s.StepCount())
	}
}

func TestMassConservedThroughFacade(t *testing.T) {
	s, err := New(baseCfg(CubeBased))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m0 := s.TotalMass()
	s.Run(15)
	if m1 := s.TotalMass(); math.Abs(m1-m0) > 1e-9*m0 {
		t.Fatalf("mass drifted %g -> %g", m0, m1)
	}
}

func TestSheetAccessors(t *testing.T) {
	s, err := New(baseCfg(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.HasSheet() {
		t.Fatal("HasSheet = false")
	}
	if n := len(s.SheetPositions()); n != 64 {
		t.Fatalf("%d positions, want 64", n)
	}
	if n := len(s.SheetVelocities()); n != 64 {
		t.Fatalf("%d velocities, want 64", n)
	}
	if _, err := s.SheetEnergy(); err != nil {
		t.Fatal(err)
	}
	// Mutating the returned copy must not affect the simulation.
	pos := s.SheetPositions()
	pos[0][0] = 999
	if s.SheetPositions()[0][0] == 999 {
		t.Fatal("SheetPositions returned shared storage")
	}
}

func TestNoSheetAccessors(t *testing.T) {
	s, err := New(Config{NX: 4, NY: 4, NZ: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.HasSheet() || s.SheetPositions() != nil {
		t.Fatal("sheet accessors must be empty without a sheet")
	}
	if _, err := s.SheetCentroid(); err == nil {
		t.Fatal("SheetCentroid without sheet must error")
	}
	if err := s.WriteSheetCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteSheetCSV without sheet must error")
	}
}

func TestNoSlipBoundaries(t *testing.T) {
	s, err := New(Config{
		NX: 6, NY: 6, NZ: 8, Tau: 0.8, BoundaryZ: NoSlip,
		BodyForce: [3]float64{1e-4, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(200)
	// Channel flow: the wall-adjacent velocity is far below the center.
	wall := s.FluidVelocity(3, 3, 0)[0]
	center := s.FluidVelocity(3, 3, 4)[0]
	if !(center > wall && wall > 0) {
		t.Fatalf("no Poiseuille profile: wall %g center %g", wall, center)
	}
}

func TestSnapshotWriters(t *testing.T) {
	s, err := New(baseCfg(CubeBased))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(2)
	var sheetCSV, sheetVTK, fluidVTK, slice bytes.Buffer
	if err := s.WriteSheetCSV(&sheetCSV); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSheetVTK(&sheetVTK); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFluidVTK(&fluidVTK); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFluidSliceCSV(&slice, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sheetCSV.String(), "fiber,node") ||
		!strings.Contains(sheetVTK.String(), "POLYDATA") ||
		!strings.Contains(fluidVTK.String(), "STRUCTURED_POINTS") ||
		!strings.Contains(slice.String(), "ux") {
		t.Fatal("snapshot writers produced unexpected output")
	}
}

func TestParseSolverKind(t *testing.T) {
	for _, c := range []struct {
		in   string
		want SolverKind
	}{{"seq", Sequential}, {"sequential", Sequential}, {"omp", OpenMP}, {"openmp", OpenMP},
		{"cube", CubeBased}, {"cube-based", CubeBased},
		// The retired fused engine's name replays on the engine that
		// computed its bits.
		{"fused", OpenMP}} {
		got, err := ParseSolverKind(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseSolverKind(%q) = %v, %v", c.in, got, err)
		}
	}
	// The retired task-scheduled engine's names are unknown, not a
	// silent fallback to another engine.
	for _, name := range []string{"mpi", "taskflow", "tasks", "task-scheduled"} {
		if _, err := ParseSolverKind(name); err == nil || !strings.Contains(err.Error(), "unknown solver") {
			t.Fatalf("ParseSolverKind(%q) error = %v, want unknown solver", name, err)
		}
	}
}

func TestSolverKindString(t *testing.T) {
	if Sequential.String() != "sequential" || OpenMP.String() != "omp" ||
		CubeBased.String() != "cube" {
		t.Fatal("SolverKind names wrong")
	}
	if SolverKind(7).String() == "" {
		t.Fatal("unknown kind must stringify")
	}
}

func TestMaxVelocityStability(t *testing.T) {
	s, err := New(baseCfg(OpenMP))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(30)
	if v := s.MaxVelocity(); v <= 0 || v > 0.2 {
		t.Fatalf("MaxVelocity = %g, want small positive", v)
	}
	if rho := s.FluidDensity(8, 8, 8); math.Abs(rho-1) > 0.1 {
		t.Fatalf("density = %g, want ≈1", rho)
	}
}

// TotalMass and MaxVelocity are computed on the cube engine's layout in
// place: no slab grid is materialized per call (they used to cost a full
// ToGrid each — and lbmib-sim calls both for every progress line). The
// run is left after an odd step count, with the array in the swapped
// phase, which the sum presents natural first: summed again once the
// snapshot has canonicalized the array, the mass keeps every bit. A raw
// read of the swapped array adds the same terms in another order, which
// the walls in z make visible in the last bits.
// MaxVelocity is order-independent and must match the snapshot path
// bitwise; the mass sums the same terms cube by cube, so only its last
// bits may differ from the snapshot's.
func TestMassAndMaxVelocityInPlaceOnCubeEngines(t *testing.T) {
	cfg := baseCfg(CubeBased)
	cfg.Threads = 2
	cfg.BoundaryZ = NoSlip
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(7) // odd: the cube engine's layout is left swapped
	swappedMass := sim.TotalMass()
	snap := sim.FluidSnapshot()
	if m := sim.TotalMass(); m != swappedMass {
		t.Errorf("TotalMass %.17g after canonicalizing, %.17g before", m, swappedMass)
	}
	if got, want := sim.MaxVelocity(), snap.MaxVelocity(); got != want {
		t.Errorf("in-place MaxVelocity %.17g != snapshot %.17g", got, want)
	}
	got, want := sim.TotalMass(), snap.TotalMass()
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("in-place TotalMass %.17g vs snapshot %.17g", got, want)
	}
	if n := testing.AllocsPerRun(5, func() { _ = sim.TotalMass() + sim.MaxVelocity() }); n != 0 {
		t.Errorf("TotalMass+MaxVelocity allocate %v times per call, want 0 (no materialized grid)", n)
	}
}

// The cube size the engines default to (4) is stored back into the
// configuration once, like the clamped thread count: Config() reports it,
// a bundle's run-spec carries it, and ConfigFromRunSpec round-trips it.
func TestDefaultCubeSizeIsReported(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	cfg := baseCfg(CubeBased)
	cfg.CubeSize = 0
	cfg.FlightRec = &flightrec.Config{Dir: dir}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k := sim.Config().CubeSize; k != 4 {
		t.Errorf("Config().CubeSize = %d, want the effective default 4", k)
	}
	sim.Run(2)
	if _, err := sim.WritePostMortem("manual"); err != nil {
		t.Fatal(err)
	}
	sim.Close()
	b, err := flightrec.ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Run == nil || b.Manifest.Run.CubeSize != 4 {
		t.Fatalf("bundle run-spec = %+v, want CubeSize 4", b.Manifest.Run)
	}
	back, err := ConfigFromRunSpec(*b.Manifest.Run)
	if err != nil {
		t.Fatal(err)
	}
	if back.CubeSize != 4 || back.Solver != CubeBased {
		t.Errorf("ConfigFromRunSpec gave solver %v, CubeSize %d", back.Solver, back.CubeSize)
	}
}
