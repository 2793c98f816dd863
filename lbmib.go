// Package lbmib is a parallel library for solving 3D fluid–structure
// interaction problems with the LBM-IB method — an immersed boundary (IB)
// method whose fluid phase is solved by the D3Q19 lattice Boltzmann method
// (LBM), after Nagar, Song, Zhu and Lin, "LBM-IB: A Parallel Library to
// Solve 3D Fluid-Structure Interaction Problems on Manycore Systems"
// (ICPP 2015).
//
// A Simulation couples a 3D fluid grid with a flexible fiber sheet: every
// time step computes the sheet's bending/stretching forces, spreads them
// onto the fluid through a smoothed Dirac delta, advances the fluid with
// the forced lattice Boltzmann equation, and moves the sheet with the
// interpolated fluid velocity (the nine kernels of the paper's
// Algorithm 1).
//
// Four interchangeable engines implement the same physics:
//
//   - Sequential — the reference implementation (paper Section III);
//   - OpenMP — loop-level parallelism with a worker team and an implicit
//     barrier per kernel (Section IV);
//   - CubeBased — the paper's data-centric contribution: the fluid lives
//     in contiguous k×k×k cubes owned by threads of a P×Q×R mesh, with a
//     minimal number of global barriers per step (Section V);
//   - Fused — the memory-aware engine: collide, stream, boundary
//     handling and macroscopic update fused into one sweep that streams
//     one distribution array in place, so each node is touched twice per
//     step, with an optional float32 distribution mode (Config.Float32)
//     under a relaxed differential contract (internal/fused).
//
// The three parallel engines run their workers on one team type
// (internal/par). The paper's future work, a task-scheduled cube engine
// (Section VIII), is not among them: it was built, was fastest on no
// problem this library measures, and was retired (DESIGN.md §17).
//
// Every float64 engine produces the sequential reference's results bit
// for bit at any thread count; the parallel ones differ only in speed and
// memory behavior. The structure may consist of several sheets (Sheets), walls
// may move (LidVelocity), and runs can be checkpointed and resumed on a
// different engine (Checkpoint/Restore).
package lbmib

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/fiber"
	"lbmib/internal/flightrec"
	"lbmib/internal/fused"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
	"lbmib/internal/omp"
	"lbmib/internal/output"
	"lbmib/internal/perfmon"
	"lbmib/internal/telemetry"
)

// SolverKind selects the engine implementation.
type SolverKind int

// Available engines.
const (
	// Sequential is the reference Algorithm 1 solver.
	Sequential SolverKind = iota
	// OpenMP is the loop-parallel solver (parallel-for per kernel).
	OpenMP
	// CubeBased is the cube-centric solver (Algorithm 4).
	CubeBased
	// Fused is the memory-aware engine: the four fluid kernels run as
	// one sweep over the slab grid that streams one distribution array
	// in place (the AA pattern, core.AABlock; internal/fused).
	// Float64 results are bitwise identical to OpenMP at any thread
	// count; Config.Float32 selects the reduced-precision distribution
	// storage with its relaxed (~1e-5) differential contract.
	Fused
)

// TaskScheduled is a deprecated alias of CubeBased. The task-scheduled
// engine is retired (DESIGN §17); the name exists only because the
// repo benchmark (bench/) still compiles against it, and ROADMAP item
// 1(g) drops it together with the benchmark's taskflow.step_ms_p50.
//
// Deprecated: use CubeBased.
const TaskScheduled = CubeBased

// String names the engine.
func (k SolverKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case OpenMP:
		return "omp"
	case CubeBased:
		return "cube"
	case Fused:
		return "fused"
	default:
		return fmt.Sprintf("solver(%d)", int(k))
	}
}

// ParseSolverKind converts a command-line name to a SolverKind.
func ParseSolverKind(s string) (SolverKind, error) {
	switch s {
	case "seq", "sequential":
		return Sequential, nil
	case "omp", "openmp":
		return OpenMP, nil
	case "cube", "cubes", "cube-based":
		return CubeBased, nil
	case "fused":
		return Fused, nil
	default:
		return 0, fmt.Errorf("lbmib: unknown solver %q (want seq, omp, cube or fused)", s)
	}
}

// Boundary selects the condition applied to one axis of the fluid box.
type Boundary int

// Boundary conditions.
const (
	// Periodic wraps the axis.
	Periodic Boundary = iota
	// NoSlip places halfway bounce-back walls at both ends of the axis.
	NoSlip
)

// SheetConfig describes the immersed flexible structure: a rectangular
// sheet of NumFibers fibers with NodesPerFiber nodes each (the paper's
// Figure 4), positioned in the fluid box in lattice units.
type SheetConfig struct {
	NumFibers     int
	NodesPerFiber int
	Width, Height float64    // physical extents (lattice units)
	Origin        [3]float64 // position of fiber 0, node 0
	Ks            float64    // stretching stiffness
	Kb            float64    // bending stiffness
	// FixedRadius > 0 fastens every node within that distance of the
	// sheet center (Figure 1's plate fastened in the middle region).
	FixedRadius float64
}

// Config assembles a simulation.
type Config struct {
	// Fluid grid dimensions (lattice nodes).
	NX, NY, NZ int
	// Tau is the BGK relaxation time (> 0.5). If zero, it is derived from
	// Viscosity; if both are zero, Tau defaults to 0.6.
	Tau float64
	// Viscosity is the kinematic viscosity in lattice units (used when
	// Tau is zero): τ = 3ν + ½.
	Viscosity float64
	// BodyForce is a uniform driving force density (e.g. the pressure
	// gradient surrogate pushing flow through the tunnel).
	BodyForce [3]float64
	// Boundary conditions per axis (default periodic).
	BoundaryX, BoundaryY, BoundaryZ Boundary
	// LidVelocity is the tangential velocity of the z-max wall when
	// BoundaryZ is NoSlip (Ladd's momentum-exchange bounce-back),
	// enabling Couette and lid-driven cavity flows.
	LidVelocity [3]float64
	// Sheet, when non-nil, immerses a flexible structure (single-sheet
	// convenience; appended to Sheets).
	Sheet *SheetConfig
	// Sheets immerses a multi-sheet structure — the paper's "3D flexible
	// structure ... comprised of a number of 2-D sheets".
	Sheets []*SheetConfig

	// Solver selects the engine (default Sequential).
	Solver SolverKind
	// Threads is the worker count for the parallel engines (default 1).
	// Requests exceeding what the decomposition can employ — more threads
	// than cubes (CubeBased) or x-planes (OpenMP) — are clamped at
	// construction; Config() reports the effective count.
	Threads int
	// CubeSize is the cube edge k for the CubeBased engine (default 4; Config() reports the effective value); the grid
	// dimensions must be divisible by it.
	CubeSize int
	// Float32 stores the velocity distributions as float32 with the
	// Fused engine (arithmetic stays float64) at the cost of a relaxed
	// (~1e-5) differential contract vs the float64 engines; macroscopic
	// fields, checkpoints and snapshots stay float64. The float32 array
	// comes on top of the grid's float64 one (284 instead of 208 B per
	// node), and the step has shown no consistent gain over float64 on
	// the host EXPERIMENTS.md measures. Rejected with any other Solver.
	Float32 bool

	// Telemetry, when non-nil, receives runtime metrics from the
	// simulation: a step counter, an MLUPS gauge, per-step wall-time
	// histograms, and per-kernel (Sequential/OpenMP) or per-phase
	// (CubeBased) latency histograms. Serve it live with
	// telemetry.Serve.
	Telemetry *telemetry.Registry
	// TraceFile, when non-empty, records a Chrome trace-event JSON
	// timeline of the run — one track per worker thread for the
	// CubeBased engine, one kernel track for Sequential/OpenMP — written
	// on Close and loadable in chrome://tracing or Perfetto.
	TraceFile string
	// LogWriter, when non-nil, receives one JSON line per completed step
	// (step, mass, maxVel, kernelMillis, mlups). Mass and maxVel come from
	// the step's digest: one pass over the engine's live layout per step,
	// shared with the Watchdog and the FlightRec.
	LogWriter io.Writer
	// Watchdog, when non-nil, checks physics health after every step;
	// once it flags the run, Run stops early and Health reports the
	// violation. It reads the step's digest (one pass over the engine's
	// live layout, shared with the LogWriter and the FlightRec), whose
	// tiles are the engine's cubes on CubeBased and 4³
	// blocks otherwise; a violation names its cell and tile.
	Watchdog *telemetry.Watchdog
	// FlightRec, when non-nil, keeps an always-on flight recorder: a
	// fixed-size ring of per-step records (kernel/phase timings, per-cube
	// physics digests, CritPath's barrier-wait share) plus periodic
	// in-memory checkpoints. When the Watchdog latches or a Step panics, a
	// post-mortem bundle is written to FlightRec.Dir (see
	// internal/flightrec); WritePostMortem writes one on demand. A zero
	// flightrec.Config{} takes the documented default cadences. The ring
	// keeps the same per-step digest the Watchdog and the LogWriter read:
	// alone, the recorder digests every DigestEvery-th step; with either
	// of them, every step is digested once and the ring copies it on its
	// cadence.
	FlightRec *flightrec.Config
	// CritPath, when true, attaches the attribution profile
	// (perfmon.Profile) on any engine: per-kernel time (Table I) where the
	// engine times its kernels; per-thread busy time, the load-imbalance
	// ratio and the barrier-wait share (Table II); and per-step
	// last-arriver attribution at every barrier site with wait-cause
	// classification (persistent straggler, data imbalance,
	// barrier-topology overhead). CritPathReport returns it all with a
	// perfsim what-if table, and a LogWriter's lines carry the per-step
	// rollup. With a Telemetry registry it is published as
	// lbmib_load_imbalance_ratio, lbmib_barrier_wait_seconds,
	// lbmib_critical_path_seconds and lbmib_last_arriver_total gauges;
	// with a TraceFile, barrier releases become Chrome-trace flow events;
	// with a flight recorder, a critpath.json section joins post-mortem
	// bundles. Off by default (the uninstrumented engines take their exact
	// pre-existing paths).
	CritPath bool
}

// engine is what each solver implementation provides to the facade. The
// stepping methods are the solver's own (each adapter embeds its solver)
// and the in-place accessors come from its fluid layout (onLayout), so
// an adapter states only what differs per engine: how it presents its
// live layout, what loading state into it must re-establish, and close. Instrumentation is
// not the adapters' business: every solver embeds the core.Problem whose
// Probe field New attaches the sinks to.
type engine interface {
	Step()
	Run(n int)
	StepCount() int
	// live returns the fluid layout the engine steps with its
	// distributions in the natural phase, canonicalizing them in place
	// if the engine streams in place and the last step left them swapped
	// (core.AABlock) — the one source of every snapshot, checkpoint,
	// fluid output and mass sum, and the one target of Restore. Between
	// steps only.
	live() core.Layout
	// loaded re-establishes the engine's invariants after Restore has
	// overwritten the live layout's distributions, ρ, u and force.
	loaded()
	close()

	velocityAt(x, y, z int) [3]float64
	densityAt(x, y, z int) float64
	maxVelocity() float64
	// digest fills the per-tile physics digest from the state in place,
	// in whichever phase the last step left it: the per-step sample must
	// not reorder the array (grid.TileDigest says what a tile's mass
	// means in the swapped phase).
	digest(d *grid.DigestGrid) error
}

// runProbe is what the facade attaches to its engine: it renumbers every
// event from the engine's step index (0-based, counted from the engine's
// construction) to the run's, so every sink labels a step as the step
// log and the watchdog do — with the value Simulation.StepCount() has
// once it completes, which continues a restored checkpoint's count.
type runProbe struct {
	sim   *Simulation
	sinks core.Probes
}

func (p runProbe) Emit(e core.Event) {
	e.Step += p.sim.stepOffset + 1
	p.sinks.Emit(e)
}

// Simulation is a configured LBM-IB problem with a selected engine.
type Simulation struct {
	cfg        Config
	eng        engine
	problem    *core.Problem // the engine's state besides its fluid: the probe's attach point
	sheets     []*fiber.Sheet
	stepOffset int // steps completed before a Restore

	// Telemetry plumbing (all optional; nil when not configured).
	tracer    *telemetry.Tracer
	traceFile *os.File
	logger    *telemetry.StepLogger
	watchdog  *telemetry.Watchdog
	rec       *flightrec.Recorder
	dig       *grid.DigestGrid // the per-step sample watchdog, step log and recorder read
	mSteps    *telemetry.Counter
	mMLUPS    *telemetry.Gauge
	mStepSec  *telemetry.Histogram

	prof *perfmon.Profile // Config.CritPath's attribution profile, or nil
	wall time.Duration    // accumulated measured wall-clock time
}

func buildSheet(sc *SheetConfig) (*fiber.Sheet, error) {
	if sc == nil {
		return nil, nil
	}
	if sc.NumFibers < 1 || sc.NodesPerFiber < 1 {
		return nil, fmt.Errorf("lbmib: sheet must have positive fiber counts, got %d×%d",
			sc.NumFibers, sc.NodesPerFiber)
	}
	s := fiber.NewSheet(fiber.Params{
		NumFibers:     sc.NumFibers,
		NodesPerFiber: sc.NodesPerFiber,
		Width:         sc.Width,
		Height:        sc.Height,
		Origin:        sc.Origin,
		Ks:            sc.Ks,
		Kb:            sc.Kb,
	})
	if sc.FixedRadius > 0 {
		s.FixRegion(sc.FixedRadius)
	}
	return s, nil
}

func buildSheets(cfg Config) ([]*fiber.Sheet, error) {
	var out []*fiber.Sheet
	for i, sc := range append(append([]*SheetConfig(nil), cfg.Sheets...), cfg.Sheet) {
		s, err := buildSheet(sc)
		if err != nil {
			return nil, fmt.Errorf("sheet %d: %w", i, err)
		}
		if s != nil {
			out = append(out, s)
		}
	}
	return out, nil
}

func toBC(b Boundary) core.BC {
	if b == NoSlip {
		return core.BounceBack
	}
	return core.Periodic
}

// New builds a Simulation. It validates the configuration and allocates
// the fluid grid at rest (ρ = 1, u = 0) with the sheet in its initial
// flat configuration.
func New(cfg Config) (*Simulation, error) {
	if cfg.NX < 1 || cfg.NY < 1 || cfg.NZ < 1 {
		return nil, fmt.Errorf("lbmib: invalid grid %d×%d×%d", cfg.NX, cfg.NY, cfg.NZ)
	}
	if cfg.Tau == 0 && cfg.Viscosity > 0 {
		cfg.Tau = lattice.TauFromViscosity(cfg.Viscosity)
	}
	if cfg.Tau == 0 {
		cfg.Tau = 0.6
	}
	if err := core.ValidateTau(cfg.Tau); err != nil {
		return nil, fmt.Errorf("lbmib: %w", err)
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Float32 && cfg.Solver != Fused {
		return nil, fmt.Errorf("lbmib: Float32 requires the Fused engine, not %v", cfg.Solver)
	}
	sheets, err := buildSheets(cfg)
	if err != nil {
		return nil, err
	}
	sim := &Simulation{cfg: cfg, sheets: sheets}

	coreCfg := core.Config{
		NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ,
		Tau:         cfg.Tau,
		BodyForce:   cfg.BodyForce,
		BCX:         toBC(cfg.BoundaryX),
		BCY:         toBC(cfg.BoundaryY),
		BCZ:         toBC(cfg.BoundaryZ),
		LidVelocity: cfg.LidVelocity,
		Sheets:      sheets,
	}
	// The solvers may clamp the requested thread count and default the
	// cube size; the effective values are stored back so Config(), the
	// run-spec and the telemetry profiles describe the team and layout
	// that actually run.
	switch cfg.Solver {
	case Sequential:
		cs, err := core.NewSolver(coreCfg)
		if err != nil {
			return nil, err
		}
		sim.cfg.Threads = 1
		sim.eng, sim.problem = &seqEngine{cs, onLayout{cs.Fluid}}, &cs.Problem
	case OpenMP:
		os, err := omp.NewSolver(omp.Config{Config: coreCfg, Threads: cfg.Threads})
		if err != nil {
			return nil, err
		}
		sim.cfg.Threads = os.Threads
		sim.eng, sim.problem = &ompEngine{os, onLayout{os.Fluid}}, &os.Problem
	case CubeBased:
		cs, err := cubesolver.NewSolver(cubesolver.Config{Config: coreCfg, CubeSize: cfg.CubeSize, Threads: cfg.Threads})
		if err != nil {
			return nil, err
		}
		sim.cfg.Threads, sim.cfg.CubeSize = cs.Threads(), cs.Fluid.K
		sim.eng, sim.problem = &cubeEngine{cs, onLayout{cs.Fluid}}, &cs.Problem
	case Fused:
		fs, err := fused.NewSolver(fused.Config{Config: coreCfg, Threads: cfg.Threads,
			Float32: cfg.Float32})
		if err != nil {
			return nil, err
		}
		sim.cfg.Threads = fs.Threads
		sim.eng, sim.problem = &fusedEngine{fs, onLayout{fs.Fluid}}, &fs.Problem
	default:
		return nil, fmt.Errorf("lbmib: unknown solver kind %d", cfg.Solver)
	}
	sinks, err := sim.initTelemetry()
	if err != nil {
		sim.eng.close()
		return nil, err
	}
	if len(sinks) > 0 {
		sim.problem.Probe = runProbe{sim, sinks}
	}
	return sim, nil
}

// initTelemetry sets up the optional observability sinks and returns
// those that consume engine events, for New to attach as one fan-out:
// the Config fields decide which sinks exist (README "Observability"
// has the table) and no engine knows. Without any of them the simulation
// runs uninstrumented (no probe, no per-step scans).
func (s *Simulation) initTelemetry() (core.Probes, error) {
	cfg := s.cfg
	var sinks core.Probes
	if cfg.Watchdog != nil || cfg.LogWriter != nil || cfg.FlightRec != nil {
		// Digest tiles are the engine's cubes where it has them, so a
		// localized violation names a cube the engine owns.
		k := 4
		if cfg.Solver == CubeBased {
			k = cfg.CubeSize
		}
		d, err := grid.NewDigestGrid(cfg.NX, cfg.NY, cfg.NZ, k)
		if err != nil {
			return nil, fmt.Errorf("lbmib: %w", err)
		}
		s.dig = d
	}
	s.watchdog = cfg.Watchdog
	if cfg.LogWriter != nil {
		s.logger = telemetry.NewStepLogger(cfg.LogWriter)
	}
	if cfg.TraceFile != "" {
		f, err := os.Create(cfg.TraceFile)
		if err != nil {
			return nil, fmt.Errorf("lbmib: trace file: %w", err)
		}
		s.traceFile = f
		s.tracer = telemetry.NewTracer()
		sinks = append(sinks, s.tracer)
	}
	if fc := cfg.FlightRec; fc != nil {
		s.rec = flightrec.New(*fc)
		s.rec.SetRunSpec(s.runSpec())
		sinks = append(sinks, s.rec)
	}
	if r := cfg.Telemetry; r != nil {
		telemetry.RegisterBuildInfo(r)
		s.mSteps = r.Counter("lbmib_steps_total", "Completed time steps.")
		s.mMLUPS = r.Gauge("lbmib_mlups", "Million lattice-node updates per second over the last Run batch.")
		s.mStepSec = r.Histogram("lbmib_step_seconds", "Wall-clock time per time step.",
			telemetry.ExpBuckets(1e-4, 2, 18))
		sinks = append(sinks, telemetry.NewLatencies(r, cfg.Solver == Sequential || cfg.Solver == OpenMP))
	}
	if cfg.CritPath {
		eng := cfg.Solver.String()
		if cfg.Float32 {
			eng = "fused-f32"
		}
		s.prof = perfmon.NewProfile(perfmon.Config{Engine: eng, Threads: cfg.Threads, Tracer: s.tracer})
		sinks = append(sinks, s.prof)
		if s.rec != nil {
			s.rec.SetAux(flightrec.CritPathFile, func() ([]byte, error) {
				r, _ := s.CritPathReport()
				return json.MarshalIndent(r, "", "  ")
			})
		}
	}
	return sinks, nil
}

// instrumented reports whether any telemetry sink needs Step/Run
// bookkeeping.
func (s *Simulation) instrumented() bool {
	return s.mSteps != nil || s.tracer != nil || s.logger != nil || s.watchdog != nil ||
		s.rec != nil || s.prof != nil
}

// runSpec describes this run for post-mortem bundles: enough to rebuild
// an equivalent Config and Restore the bundled checkpoint into it.
func (s *Simulation) runSpec() flightrec.RunSpec {
	cfg := s.cfg
	bname := func(b Boundary) string {
		if b == NoSlip {
			return "noslip"
		}
		return "periodic"
	}
	spec := flightrec.RunSpec{
		NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ,
		Tau:       cfg.Tau,
		BodyForce: cfg.BodyForce,
		BoundaryX: bname(cfg.BoundaryX), BoundaryY: bname(cfg.BoundaryY), BoundaryZ: bname(cfg.BoundaryZ),
		LidVelocity: cfg.LidVelocity,
		Solver:      cfg.Solver.String(),
		Threads:     cfg.Threads,
		CubeSize:    cfg.CubeSize,
		Float32:     cfg.Float32,
	}
	for _, sc := range append(append([]*SheetConfig(nil), cfg.Sheets...), cfg.Sheet) {
		if sc == nil {
			continue
		}
		spec.Sheets = append(spec.Sheets, flightrec.SheetSpec{
			NumFibers: sc.NumFibers, NodesPerFiber: sc.NodesPerFiber,
			Width: sc.Width, Height: sc.Height, Origin: sc.Origin,
			Ks: sc.Ks, Kb: sc.Kb, FixedRadius: sc.FixedRadius,
		})
	}
	return spec
}

// ConfigFromRunSpec rebuilds a Config from a bundle's RunSpec, the
// inverse of the description embedded by the flight recorder. The
// returned Config has no telemetry attached; callers add their own.
func ConfigFromRunSpec(spec flightrec.RunSpec) (Config, error) {
	solver, err := ParseSolverKind(spec.Solver)
	if err != nil {
		return Config{}, err
	}
	bparse := func(name string) (Boundary, error) {
		switch name {
		case "", "periodic":
			return Periodic, nil
		case "noslip":
			return NoSlip, nil
		default:
			return 0, fmt.Errorf("lbmib: unknown boundary %q", name)
		}
	}
	cfg := Config{
		NX: spec.NX, NY: spec.NY, NZ: spec.NZ,
		Tau:         spec.Tau,
		BodyForce:   spec.BodyForce,
		LidVelocity: spec.LidVelocity,
		Solver:      solver,
		Threads:     spec.Threads,
		CubeSize:    spec.CubeSize,
		Float32:     spec.Float32,
	}
	if cfg.BoundaryX, err = bparse(spec.BoundaryX); err != nil {
		return Config{}, err
	}
	if cfg.BoundaryY, err = bparse(spec.BoundaryY); err != nil {
		return Config{}, err
	}
	if cfg.BoundaryZ, err = bparse(spec.BoundaryZ); err != nil {
		return Config{}, err
	}
	for _, sh := range spec.Sheets {
		cfg.Sheets = append(cfg.Sheets, &SheetConfig{
			NumFibers: sh.NumFibers, NodesPerFiber: sh.NodesPerFiber,
			Width: sh.Width, Height: sh.Height, Origin: sh.Origin,
			Ks: sh.Ks, Kb: sh.Kb, FixedRadius: sh.FixedRadius,
		})
	}
	return cfg, nil
}

// Step advances one time step (the nine kernels of Algorithm 1).
func (s *Simulation) Step() { s.runSteps(1) }

// Run advances n time steps. With a Watchdog configured, Run stops at
// the first step that violates a physics invariant; Health reports it.
func (s *Simulation) Run(n int) { s.runSteps(n) }

// runSteps drives the engine with whatever bookkeeping the configured
// telemetry requires: nothing extra without telemetry, batch timing with
// a Registry alone, and step-by-step driving when a LogWriter, Watchdog
// or flight recorder reads the per-step digest. With a recorder
// configured, a panicking step still leaves a post-mortem bundle behind.
func (s *Simulation) runSteps(n int) {
	if n <= 0 {
		return
	}
	if !s.instrumented() {
		s.eng.Run(n)
		return
	}
	if s.rec != nil {
		defer func() {
			if p := recover(); p != nil {
				var herr *telemetry.HealthError
				if s.watchdog != nil {
					errors.As(s.watchdog.Err(), &herr)
				}
				s.rec.WriteBundle("panic", herr) //nolint:errcheck // already panicking
				panic(p)
			}
		}()
	}
	nodes := float64(s.cfg.NX) * float64(s.cfg.NY) * float64(s.cfg.NZ)
	if s.dig == nil {
		t0 := time.Now()
		s.eng.Run(n)
		s.recordBatch(n, nodes, time.Since(t0))
		return
	}
	for i := 0; i < n; i++ {
		if s.watchdog != nil && !s.watchdog.Healthy() {
			return // the run is flagged; don't advance a diverged state
		}
		t0 := time.Now()
		s.eng.Step()
		elapsed := time.Since(t0)
		s.recordBatch(1, nodes, elapsed)

		step := s.StepCount()
		mlups := 0.0
		if elapsed > 0 {
			mlups = nodes / elapsed.Seconds() / 1e6
		}
		// The Table II rollup so far, read once for the recorder and the
		// step log (zero without Config.CritPath).
		var imbalance, waitShare float64
		if s.prof != nil {
			imbalance, waitShare = s.prof.ImbalanceRatio(), s.prof.BarrierWaitShare(s.wall)
		}

		// One digest of the live layout per sampled step feeds the
		// watchdog, the step log and the ring: every step with a watchdog
		// or step log, the recorder's cadence with the recorder alone.
		keep := s.rec != nil && s.rec.WantDigest(step)
		sampled := (s.watchdog != nil || s.logger != nil || keep) &&
			s.eng.digest(s.dig) == nil // a failed digest must not kill the run
		var herr *telemetry.HealthError
		if sampled && s.watchdog != nil {
			// A type assertion, not errors.As: &herr would escape and
			// cost an allocation on every step.
			herr, _ = s.watchdog.Check(step, s.dig).(*telemetry.HealthError)
		}
		if s.rec != nil {
			if sampled && keep {
				s.rec.RecordDigest(step, s.dig)
			}
			s.rec.RecordStep(step, elapsed, mlups, waitShare)
			if herr == nil && s.rec.WantSnapshot(step) {
				s.rec.TakeSnapshot(step, s.Checkpoint) //nolint:errcheck // best-effort; last good snapshot is kept
			}
			if herr != nil {
				s.rec.WriteBundle("watchdog", herr) //nolint:errcheck // latched error is still exposed via Health
			}
		}

		if s.logger != nil {
			rec := telemetry.StepRecord{
				Step:             step,
				KernelMillis:     float64(elapsed.Microseconds()) / 1e3,
				MLUPS:            mlups,
				Imbalance:        imbalance,
				BarrierWaitShare: waitShare,
				Unhealthy:        herr.Record(),
			}
			if sampled {
				rec.Mass, rec.MaxVel = s.dig.Mass, s.dig.MaxVel
			}
			if s.prof != nil {
				if cp, ok := s.prof.StepRecord(step); ok {
					rec.CritPath = &cp
				}
			}
			s.logger.Log(rec) //nolint:errcheck // logging is best-effort
		}
	}
}

// FlightRecorder returns the configured flight recorder, or nil.
func (s *Simulation) FlightRecorder() *flightrec.Recorder { return s.rec }

// WritePostMortem writes a post-mortem bundle on demand (reason
// "manual" for operator-initiated dumps, "crosscheck" when a
// differential harness caught a divergence). It requires Config.FlightRec
// with a Dir, and embeds the watchdog's latched error if any.
func (s *Simulation) WritePostMortem(reason string) (string, error) {
	if s.rec == nil {
		return "", fmt.Errorf("lbmib: post-mortem requires Config.FlightRec")
	}
	var herr *telemetry.HealthError
	if s.watchdog != nil {
		errors.As(s.watchdog.Err(), &herr)
	}
	return s.rec.WriteBundle(reason, herr)
}

// recordBatch updates the registry metrics for n steps that took
// elapsed.
func (s *Simulation) recordBatch(n int, nodes float64, elapsed time.Duration) {
	s.wall += elapsed
	if s.mSteps != nil {
		s.mSteps.Add(int64(n))
		if elapsed > 0 {
			s.mMLUPS.Set(nodes * float64(n) / elapsed.Seconds() / 1e6)
		}
		perStep := (elapsed / time.Duration(n)).Seconds()
		for i := 0; i < n; i++ {
			s.mStepSec.Observe(perStep)
		}
	}
	if s.prof != nil {
		s.prof.Publish(s.cfg.Telemetry) // nil registry is a no-op
	}
}

// CritPathReport returns the attribution profile's accumulated report —
// Table I where the engine times its kernels, the Table II rollup
// (shares measured against the wall-clock time of instrumented Step/Run
// calls), per-site last-arriver attribution with wait-cause classes,
// per-phase critical-path seconds, recent last-arriver chains, and the
// perfsim what-if table of predicted MLUPS gains. ok is false unless
// Config.CritPath was set.
func (s *Simulation) CritPathReport() (perfmon.Report, bool) {
	if s.prof == nil {
		return perfmon.Report{}, false
	}
	r := s.prof.Report(s.wall)
	perfmon.AddWhatIf(&r, float64(s.cfg.NX)*float64(s.cfg.NY)*float64(s.cfg.NZ))
	return r, true
}

// Health returns nil while the configured Watchdog (if any) considers
// the run healthy, and the latched *telemetry.HealthError naming the
// first unstable step otherwise.
func (s *Simulation) Health() error {
	if s.watchdog == nil {
		return nil
	}
	return s.watchdog.Err()
}

// StepCount returns the number of completed time steps, including steps
// recorded in a restored checkpoint.
func (s *Simulation) StepCount() int { return s.stepOffset + s.eng.StepCount() }

// Close releases worker goroutines held by parallel engines and, when a
// TraceFile is configured, writes the accumulated Chrome trace-event
// timeline. The Simulation must not be used afterwards. Close is safe
// for the sequential engine too (releasing nothing).
func (s *Simulation) Close() error {
	s.eng.close()
	if s.traceFile == nil {
		return nil
	}
	f := s.traceFile
	s.traceFile = nil
	if err := s.tracer.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("lbmib: writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lbmib: closing trace: %w", err)
	}
	return nil
}

// Config returns the configuration the simulation was built with
// (including derived defaults such as Tau).
func (s *Simulation) Config() Config { return s.cfg }

// FluidVelocity returns the macroscopic velocity at fluid node (x, y, z);
// coordinates wrap periodically.
func (s *Simulation) FluidVelocity(x, y, z int) [3]float64 { return s.eng.velocityAt(x, y, z) }

// FluidDensity returns the macroscopic density at fluid node (x, y, z).
func (s *Simulation) FluidDensity(x, y, z int) float64 { return s.eng.densityAt(x, y, z) }

// TotalMass returns the total distribution mass, an exactly conserved
// invariant useful for sanity checks. It is summed over the engine's
// live layout in storage order — no snapshot is materialized — so on the
// cube engines it can differ from FluidSnapshot().TotalMass() in the
// last bits (the same terms, added cube by cube).
func (s *Simulation) TotalMass() float64 {
	if e, ok := s.eng.(*fusedEngine); ok {
		return e.TotalMass() // sums float32 storage without widening it
	}
	return grid.TotalMass(s.eng.live().Dist())
}

// MaxVelocity returns the largest fluid speed; it must remain well below
// the lattice sound speed (≈0.577) for the simulation to stay valid.
func (s *Simulation) MaxVelocity() float64 { return s.eng.maxVelocity() }

// HasSheet reports whether a structure is immersed.
func (s *Simulation) HasSheet() bool { return len(s.sheets) > 0 }

// NumSheets returns how many sheets compose the immersed structure.
func (s *Simulation) NumSheets() int { return len(s.sheets) }

// sheetAt returns sheet i or an error.
func (s *Simulation) sheetAt(i int) (*fiber.Sheet, error) {
	if i < 0 || i >= len(s.sheets) {
		return nil, fmt.Errorf("lbmib: sheet index %d of %d sheets", i, len(s.sheets))
	}
	return s.sheets[i], nil
}

// SheetPositionsAt returns a copy of sheet i's node positions.
func (s *Simulation) SheetPositionsAt(i int) ([][3]float64, error) {
	sh, err := s.sheetAt(i)
	if err != nil {
		return nil, err
	}
	return append([][3]float64(nil), sh.X...), nil
}

// SheetVelocitiesAt returns a copy of sheet i's node velocities.
func (s *Simulation) SheetVelocitiesAt(i int) ([][3]float64, error) {
	sh, err := s.sheetAt(i)
	if err != nil {
		return nil, err
	}
	return append([][3]float64(nil), sh.Vel...), nil
}

// FluidSnapshot returns a copy of the complete fluid state, one
// grid.Node per fluid node in x-major order: each node's present
// distributions in DF, with ρ, u and the force field. It is gathered from
// the engine's live layout and owns its memory, so later steps do not
// change it; DFNew is left zero.
func (s *Simulation) FluidSnapshot() *grid.Snapshot {
	l := s.eng.live()
	snap := grid.NewSnapshot(l.Dims())
	df, macro, dst := l.Dist(), l.Macros(), snap.Nodes
	_ = eachPlane(l, func(_ int, plane []int) error {
		for i, j := range plane {
			n, m := &dst[i], &macro[j]
			n.DF, n.Vel, n.Rho, n.Force = df[j], m.Vel, m.Rho, m.Force
		}
		dst = dst[len(plane):]
		return nil
	})
	return snap
}

// SheetCentroidAt returns sheet i's mean node position.
func (s *Simulation) SheetCentroidAt(i int) ([3]float64, error) {
	sh, err := s.sheetAt(i)
	if err != nil {
		return [3]float64{}, err
	}
	return sh.Centroid(), nil
}

// firstSheet is the target of the single-sheet convenience accessors.
func (s *Simulation) firstSheet() *fiber.Sheet {
	if len(s.sheets) == 0 {
		return nil
	}
	return s.sheets[0]
}

// SheetPositions returns a copy of all fiber-node positions in flat order
// (fiber-major), or nil without a sheet.
func (s *Simulation) SheetPositions() [][3]float64 {
	if s.firstSheet() == nil {
		return nil
	}
	return append([][3]float64(nil), s.firstSheet().X...)
}

// SheetVelocities returns a copy of all fiber-node velocities, or nil.
func (s *Simulation) SheetVelocities() [][3]float64 {
	if s.firstSheet() == nil {
		return nil
	}
	return append([][3]float64(nil), s.firstSheet().Vel...)
}

// SheetCentroid returns the mean fiber-node position.
func (s *Simulation) SheetCentroid() ([3]float64, error) {
	if s.firstSheet() == nil {
		return [3]float64{}, fmt.Errorf("lbmib: simulation has no sheet")
	}
	return s.firstSheet().Centroid(), nil
}

// SheetEnergy returns the sheet's elastic (bending + stretching) energy.
func (s *Simulation) SheetEnergy() (float64, error) {
	if s.firstSheet() == nil {
		return 0, fmt.Errorf("lbmib: simulation has no sheet")
	}
	return s.firstSheet().ElasticEnergy(), nil
}

// WriteSheetCSV writes the sheet's nodes as CSV (fiber, node, position,
// velocity).
func (s *Simulation) WriteSheetCSV(w io.Writer) error {
	if s.firstSheet() == nil {
		return fmt.Errorf("lbmib: simulation has no sheet")
	}
	return output.WriteSheetCSV(w, s.firstSheet())
}

// WriteSheetVTK writes the sheet as legacy-VTK polydata for ParaView.
func (s *Simulation) WriteSheetVTK(w io.Writer) error {
	if s.firstSheet() == nil {
		return fmt.Errorf("lbmib: simulation has no sheet")
	}
	return output.WriteSheetVTK(w, s.firstSheet())
}

// WriteFluidVTK writes the fluid velocity/density fields as legacy VTK,
// read from the engine's live layout.
func (s *Simulation) WriteFluidVTK(w io.Writer) error {
	return output.WriteFluidVTK(w, s.eng.live())
}

// WriteFluidSliceCSV writes the x = plane velocity slice as CSV, read from
// the engine's live layout.
func (s *Simulation) WriteFluidSliceCSV(w io.Writer, plane int) error {
	return output.WriteFluidSliceCSV(w, s.eng.live(), plane)
}

// --- engine adapters ---

// onLayout answers the in-place accessors from the engine's fluid
// container through the block-layout contract: the records, which no
// phase reorders, and the digest.
type onLayout struct{ l core.Layout }

func (o onLayout) macro(x, y, z int) *grid.Macro {
	x, y, z = o.l.Wrap(x, y, z)
	return &o.l.Macros()[o.l.Idx(x, y, z)]
}
func (o onLayout) velocityAt(x, y, z int) [3]float64 { return o.macro(x, y, z).Vel }
func (o onLayout) densityAt(x, y, z int) float64     { return o.macro(x, y, z).Rho }
func (o onLayout) maxVelocity() float64              { return grid.MaxVelocity(o.l.Macros()) }
func (o onLayout) digest(d *grid.DigestGrid) error   { return o.l.Digest(d) }

// seqEngine's grid is always natural: the sequential engine streams into
// a second array and copies it back.
type seqEngine struct {
	*core.Solver
	onLayout
}

func (e *seqEngine) live() core.Layout { return e.Fluid }
func (e *seqEngine) close()            {}

// loaded has nothing to re-establish: kernel 4 resets the force itself.
func (e *seqEngine) loaded() {}

type ompEngine struct {
	*omp.Solver
	onLayout
}

func (e *ompEngine) live() core.Layout { return e.Live() }
func (e *ompEngine) close()            { e.Close() }

// loaded re-establishes the between-steps invariant Force == BodyForce
// that SpreadForce relies on; a checkpoint may carry another engine's
// end-of-step force state, which is dead state for every engine.
func (e *ompEngine) loaded() { core.SeedForce(e.Fluid.Macros(), e.BodyForce) }

type cubeEngine struct {
	*cubesolver.Solver
	onLayout
}

func (e *cubeEngine) live() core.Layout { return e.Live() }
func (e *cubeEngine) close()            { e.Close() }
func (e *cubeEngine) loaded()           { core.SeedForce(e.Fluid.Macros(), e.BodyForce) } // see ompEngine.loaded

// fusedEngine digests through fused.Solver.Digest, which in float32 mode
// widens the stored distributions into the grid first.
type fusedEngine struct {
	*fused.Solver
	onLayout
}

func (e *fusedEngine) live() core.Layout               { return e.Live() }
func (e *fusedEngine) digest(d *grid.DigestGrid) error { return e.Digest(d) }
func (e *fusedEngine) close()                          { e.Close() }
func (e *fusedEngine) loaded()                         { e.Loaded() }
