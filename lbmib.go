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
// Three interchangeable engines implement the same physics:
//
//   - Sequential — the reference implementation (paper Section III);
//   - OpenMP — loop-level parallelism with a worker team and an implicit
//     barrier per kernel (Section IV);
//   - CubeBased — the paper's data-centric contribution: the fluid lives
//     in contiguous k×k×k cubes owned by threads of a P×Q×R mesh, with a
//     minimal number of global barriers per step (Section V).
//
// The two parallel engines stream one distribution array in place and run
// their workers on one team type (internal/par); a fluid-only OpenMP step
// is a single collide-and-stream pass over the fluid. Two more engines
// were built and retired (DESIGN.md §17): the paper's future work, a
// task-scheduled cube engine (Section VIII), and a fused single-sweep
// engine; neither measured faster than the engine it duplicated on any
// problem this library measures.
//
// Every engine produces the sequential reference's results bit for bit
// at any thread count; the parallel ones differ only in speed and
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
	"lbmib/internal/engine"
	"lbmib/internal/fiber"
	"lbmib/internal/flightrec"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
	"lbmib/internal/output"
	"lbmib/internal/par"
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
)

// Fused is a deprecated alias of OpenMP. The fused single-sweep engine is
// retired (DESIGN §17): OpenMP's fluid-only step is the same one pass
// over the same slabs. The name exists only because the repo benchmark
// (bench/) still compiles against it, and ROADMAP item 1(g) drops it.
//
// Deprecated: use OpenMP.
const Fused = OpenMP

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
		// The retired fused engine's name, kept so that flight-recorder
		// bundles recorded on it still replay: it computed OpenMP's bits.
		return OpenMP, nil
	default:
		return 0, fmt.Errorf("lbmib: unknown solver %q (want seq, omp or cube)", s)
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
	// Float32 is ignored: every engine stores its distributions in
	// float64. The float32 storage of the fused engine is retired
	// (DESIGN §14); the field exists only because the repo benchmark
	// (bench/) still sets it, and ROADMAP item 1(g) drops it.
	//
	// Deprecated: New ignores it.
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
	// the step's sample, the digest of the state the step left, shared
	// with the Watchdog and the FlightRec. On the parallel engines a
	// step's sample is taken by the next step's collide sweep, or by the
	// next between-steps reader (Checkpoint, WritePostMortem,
	// FlightRecorder, the fluid snapshot and writers, Close), so a step's
	// line is written once the next step or reader has run; Sequential
	// samples at the end of the step, and every engine at the end of a
	// recorder's snapshot step. Every line names the step it describes,
	// and no step is logged twice.
	LogWriter io.Writer
	// Watchdog, when non-nil, checks every step's sample (see LogWriter:
	// on the parallel engines it is completed by the next step's sweep or
	// the next between-steps reader); once it flags a state, Run stops —
	// on the parallel engines at most one step after the violating state
	// — and Health reports the violation, naming the violating step. The
	// sample's tiles are the engine's cubes on CubeBased and 4³ blocks
	// otherwise; a violation names its cell and tile. Health only reads
	// what the samples delivered so far found.
	Watchdog *telemetry.Watchdog
	// FlightRec, when non-nil, keeps an always-on flight recorder: a
	// fixed-size ring of per-step records (kernel/phase timings, per-cube
	// physics digests, CritPath's barrier-wait share) plus periodic
	// in-memory checkpoints. When the Watchdog latches or a Step panics, a
	// post-mortem bundle is written to FlightRec.Dir (see
	// internal/flightrec); WritePostMortem writes one on demand. A zero
	// flightrec.Config{} takes the documented default cadences. The ring
	// keeps the same per-step sample the Watchdog and the LogWriter read,
	// under the step it describes: alone, the recorder samples every
	// DigestEvery-th step; with either of them, every step is sampled once
	// and the ring copies the sample on its cadence, and the sample the
	// Watchdog flags on any step, so that the bundle's localization sees
	// the flagged digest. A snapshot step's sample is completed before the
	// snapshot is taken, so a snapshot is kept only once its state passed
	// the Watchdog. FlightRecorder completes the pending sample before it
	// returns the recorder, so its ring holds the sample of StepCount().
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

// adapter is what each solver implementation provides to the facade. The
// stepping methods are the solver's own (each adapter embeds its solver)
// and the in-place accessors come from its grid (onLayout), so an
// adapter states only what differs per engine: how it presents its live
// grid, what loading state into it must re-establish, and close. There
// are two: the sequential engine's and the one over engine.Solver, which
// runs both parallel schedules on one core.InPlace state. Instrumentation
// is not the adapters' business: every solver embeds the core.Problem
// whose Probe field New attaches the sinks to.
type adapter interface {
	Step()
	Run(n int)
	StepCount() int
	// live returns the fluid grid the engine steps with its
	// distributions in the natural phase, canonicalizing them in place
	// if the engine streams in place and the last step left them swapped
	// (core.AABlock), and every record fresh — the one source of every
	// snapshot, checkpoint and fluid output, and the one target of
	// Restore. Between steps only.
	live() *grid.Grid
	// mass returns the summed distribution mass of live's grid, in
	// storage order, without refreshing a record: it canonicalizes only.
	// Between steps only.
	mass() float64
	// loaded re-establishes the engine's invariants after Restore has
	// overwritten the live grid's distributions, ρ, u and force.
	loaded()
	// team returns the engine's worker team, on which the readers
	// between steps run; Sequential has none and returns a width-1 team,
	// which runs their code inline.
	team() *par.Team
	close()

	velocityAt(x, y, z int) [3]float64
	densityAt(x, y, z int) float64
	maxVelocity() float64
	// Digest fills the per-tile physics digest of live's grid and
	// leaves the engine as live leaves it: an in-place engine
	// canonicalizes its array and refreshes its stale records as it
	// digests, both on its worker team (grid.DigestGrid.Begin). The
	// values are the same bits at any thread count. Between steps only.
	Digest(d *grid.DigestGrid) error
	// observe asks the next step's collide sweep to digest the state
	// before it into d, complete when the step returns: the same bits as
	// Digest, without a pass of its own (core.InPlace.Observe). The
	// sequential engine has no sweep to ask and returns an error.
	observe(d *grid.DigestGrid) error
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
	eng        adapter
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
	samp      sampler // when the sample is taken, completed and kept

	prof *perfmon.Profile // Config.CritPath's attribution profile, or nil
	wall time.Duration    // accumulated measured wall-clock time

	// stream is the ordered stream Checkpoint, Restore and the fluid
	// writers run on the engine's team, with its per-worker buffers;
	// built at first use (ordered), never by New.
	stream *par.Ordered
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
	var ps *engine.Solver // a parallel engine
	switch cfg.Solver {
	case Sequential:
		cs, err := core.NewSolver(coreCfg)
		if err != nil {
			return nil, err
		}
		sim.cfg.Threads = 1
		sim.eng, sim.problem = &seqEngine{cs, onLayout{cs.Fluid, nil}}, &cs.Problem
	case OpenMP:
		ps, err = engine.NewOpenMP(coreCfg, cfg.Threads)
	case CubeBased:
		if ps, err = engine.NewCube(coreCfg, cfg.CubeSize, cfg.Threads); err == nil {
			sim.cfg.CubeSize = ps.Fluid.BlockExtent()[0]
		}
	default:
		return nil, fmt.Errorf("lbmib: unknown solver kind %d", cfg.Solver)
	}
	if err != nil {
		return nil, err
	}
	if ps != nil {
		sim.cfg.Threads = ps.Threads()
		sim.eng, sim.problem = &inPlaceEngine{ps, onLayout{ps.Fluid, ps.Refresh}}, &ps.Problem
		sim.samp.sweep = true
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
		// Digest tiles are the grid's blocks where they are cubes, so a
		// localized violation names a cube the engine owns; x-planes are
		// digested in 4³ tiles.
		k := 4
		if e := s.eng.live().BlockExtent(); e != [3]int{1, cfg.NY, cfg.NZ} {
			k = e[0]
		}
		d, err := grid.NewDigestGrid(cfg.NX, cfg.NY, cfg.NZ, k)
		if err != nil {
			return nil, fmt.Errorf("lbmib: %w", err)
		}
		s.dig = d
	}
	s.watchdog = cfg.Watchdog
	s.samp.every = cfg.Watchdog != nil || cfg.LogWriter != nil
	s.samp.flagged = s.Health() != nil // a watchdog that has flagged another run
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
		s.samp.ringEvery, s.samp.snapEvery = s.rec.Config().DigestEvery, s.rec.Config().SnapshotEvery
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
		s.prof = perfmon.NewProfile(perfmon.Config{Engine: cfg.Solver.String(), Threads: cfg.Threads, Tracer: s.tracer})
		sinks = append(sinks, s.prof)
		if s.rec != nil {
			s.rec.SetCritPath(func() ([]byte, error) {
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
// returned Config has no telemetry attached; callers add their own. A
// spec recorded with the retired float32 storage is an error: a float64
// run would not reproduce its trajectory.
func ConfigFromRunSpec(spec flightrec.RunSpec) (Config, error) {
	if spec.Float32 {
		return Config{}, errors.New("lbmib: the run used float32 distribution storage, which is retired; a float64 replay would not reproduce it")
	}
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
// or flight recorder reads the per-step sample. With a recorder
// configured, a panicking step still leaves a post-mortem bundle behind.
//
// The sampler decides when a step's sample is taken and completed, and
// runSteps carries it out: on the parallel engines it arms the next
// step's collide sweep (observe), which digests the sampled state as it
// overwrites it, and delivers the sample once that step returns;
// Sequential's kernel 7 leaves every record fresh, so its sample is
// completed at the end of its own step (flush), as is a snapshot step's,
// so only a state the watchdog passed is kept. DESIGN.md §12, "Samples",
// has the contract.
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
				s.rec.WriteBundle("panic", s.healthErr()) //nolint:errcheck // already panicking
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
	for i := 0; i < n && s.samp.mayStep(); i++ {
		if s.samp.observe() && s.eng.observe(s.dig) != nil {
			s.flush()
		}
		t0 := time.Now()
		s.eng.Step()
		elapsed := time.Since(t0)
		s.recordBatch(1, nodes, elapsed)

		p := stepTiming{step: s.StepCount(), elapsed: elapsed}
		if elapsed > 0 {
			p.mlups = nodes / elapsed.Seconds() / 1e6
		}
		// The Table II rollup so far, read once for the recorder and the
		// step log (zero without Config.CritPath).
		if s.prof != nil {
			p.imbalance, p.waitShare = s.prof.ImbalanceRatio(), s.prof.BarrierWaitShare(s.wall)
		}
		if s.rec != nil {
			s.rec.RecordStep(p.step, elapsed, p.mlups, p.waitShare)
		}
		if q, ok := s.samp.swept(); ok {
			s.deliver(q)
		}
		s.samp.stepDone(p)
		if s.samp.due() {
			s.flush()
		}
		if s.samp.snapshot() {
			s.rec.TakeSnapshot(p.step, s.checkpointSize(), s.Checkpoint) //nolint:errcheck // best-effort; last good snapshot is kept
		}
	}
}

// stepTiming is what the step log records of a step besides its sample.
type stepTiming struct {
	step                        int
	elapsed                     time.Duration
	mlups, imbalance, waitShare float64
}

// flush completes a pending sample between steps with the engine's
// explicit digest and delivers it. Every between-steps reader calls it
// first, so no sampled step goes undelivered.
func (s *Simulation) flush() {
	if !s.samp.owed() {
		return
	}
	if s.eng.Digest(s.dig) != nil { // a failed digest must not kill the run
		s.samp.digestFailed()
		return
	}
	s.deliver(s.samp.flushed())
}

// deliver hands the sample of step p, now in s.dig, to the watchdog, the
// ring and the step log, each under the step it describes, and writes a
// bundle if the watchdog flags it.
func (s *Simulation) deliver(p stepTiming) {
	var herr *telemetry.HealthError
	if s.watchdog != nil {
		// A type assertion, not errors.As: &herr would escape and cost
		// an allocation on every step.
		if herr, _ = s.watchdog.Check(p.step, s.dig).(*telemetry.HealthError); herr != nil {
			s.samp.flag()
		}
	}
	if s.rec != nil {
		if s.samp.ringKeeps(p.step) {
			s.rec.RecordDigest(p.step, s.dig)
		}
		if herr != nil {
			s.rec.WriteBundle("watchdog", herr) //nolint:errcheck // latched error is still exposed via Health
		}
	}
	if s.logger != nil {
		rec := telemetry.StepRecord{
			Step:             p.step,
			Mass:             s.dig.Mass,
			MaxVel:           s.dig.MaxVel,
			KernelMillis:     float64(p.elapsed.Microseconds()) / 1e3,
			MLUPS:            p.mlups,
			Imbalance:        p.imbalance,
			BarrierWaitShare: p.waitShare,
			Unhealthy:        herr.Record(),
		}
		if s.prof != nil {
			if cp, ok := s.prof.StepRecord(p.step); ok {
				rec.CritPath = &cp
			}
		}
		s.logger.Log(rec) //nolint:errcheck // logging is best-effort
	}
}

// healthErr returns the watchdog's latched error, nil while the run is
// healthy or without a watchdog.
func (s *Simulation) healthErr() *telemetry.HealthError {
	var herr *telemetry.HealthError
	errors.As(s.Health(), &herr)
	return herr
}

// live completes any pending sample, then returns the engine's live
// grid (adapter.live): the one way the facade's between-steps readers
// reach the fluid.
func (s *Simulation) live() *grid.Grid {
	s.flush()
	return s.eng.live()
}

// ordered returns the ordered stream on the engine's team that
// Checkpoint, Restore and the fluid writers format and decode on, built
// at first use: its buffers, one chunk per worker, are not part of a
// simulation that never writes.
func (s *Simulation) ordered() *par.Ordered {
	if s.stream == nil {
		s.stream = par.NewOrdered(s.eng.team())
	}
	return s.stream
}

// FlightRecorder returns the configured flight recorder, or nil. Like
// every reader between steps, it first completes the pending sample, so
// the ring holds the sample of StepCount() on every engine.
func (s *Simulation) FlightRecorder() *flightrec.Recorder {
	s.flush()
	return s.rec
}

// WritePostMortem writes a post-mortem bundle on demand (reason
// "manual" for operator-initiated dumps, "crosscheck" when a
// differential harness caught a divergence). It requires Config.FlightRec
// with a Dir, and embeds the watchdog's latched error if any. Like every
// reader between steps, it first completes the pending sample.
func (s *Simulation) WritePostMortem(reason string) (string, error) {
	s.flush()
	if s.rec == nil {
		return "", fmt.Errorf("lbmib: post-mortem requires Config.FlightRec")
	}
	return s.rec.WriteBundle(reason, s.healthErr())
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
// first unstable step otherwise. It only reads: on the parallel engines
// the last step's sample is checked by the next step or between-steps
// reader (Config.Watchdog), not by Health.
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
// for the sequential engine too (releasing nothing). A pending sample is
// delivered first.
func (s *Simulation) Close() error {
	s.flush()
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
// last bits (the same terms, added cube by cube). It reads the
// distributions alone: an in-place engine's array is canonicalized, and
// records the last step left stale stay stale.
func (s *Simulation) TotalMass() float64 { return s.eng.mass() }

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
// distributions in DF, with ρ and u. It is gathered from the engine's
// live layout and owns its memory, so later steps do not change it.
// DFNew is left zero, and Force is the body force, which every engine's
// next step starts from: the force a step spread is dead once it ends.
func (s *Simulation) FluidSnapshot() *grid.Snapshot {
	l := s.live()
	nx, ny, nz := l.Dims()
	snap := grid.NewSnapshot(nx, ny, nz)
	macro, at := l.Macros(), grid.AxisIndex(l)
	eachPlane(s.eng.team(), nx, func(x int) {
		dst := snap.Nodes[x*ny*nz:]
		for y := 0; y < ny; y++ {
			jy := at[0][x] + at[1][y]
			for z, az := range at[2] {
				n, j := &dst[y*nz+z], jy+az
				l.Load(j, &n.DF)
				n.Vel, n.Rho, n.Force = macro[j].Vel, macro[j].Rho, s.cfg.BodyForce
			}
		}
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
// read from the engine's live layout and formatted on its team.
func (s *Simulation) WriteFluidVTK(w io.Writer) error {
	return output.WriteFluidVTK(w, s.live(), s.ordered())
}

// WriteFluidSliceCSV writes the x = plane velocity slice as CSV, read from
// the engine's live layout and formatted on its team.
func (s *Simulation) WriteFluidSliceCSV(w io.Writer, plane int) error {
	return output.WriteFluidSliceCSV(w, s.live(), plane, s.ordered())
}

// --- engine adapters ---

// onLayout answers the in-place accessors from the engine's grid: the
// records, which no phase reorders. An in-place engine may leave records
// stale between steps (core.Support); refresh, nil on the sequential
// engine, brings them up to date first.
type onLayout struct {
	l       *grid.Grid
	refresh func()
}

func (o onLayout) fresh() *grid.Grid {
	if o.refresh != nil {
		o.refresh()
	}
	return o.l
}

func (o onLayout) macro(x, y, z int) *grid.Macro {
	g := o.fresh()
	return g.At(g.Wrap(x, y, z))
}
func (o onLayout) velocityAt(x, y, z int) [3]float64 { return o.macro(x, y, z).Vel }
func (o onLayout) densityAt(x, y, z int) float64     { return o.macro(x, y, z).Rho }
func (o onLayout) maxVelocity() float64              { return o.fresh().MaxVelocity() }

// seqEngine's grid is always natural: the sequential engine streams into
// a second array and copies it back.
type seqEngine struct {
	*core.Solver
	onLayout
}

func (e *seqEngine) live() *grid.Grid                { return e.Fluid }
func (e *seqEngine) mass() float64                   { return e.Fluid.TotalMass() }
func (e *seqEngine) Digest(d *grid.DigestGrid) error { return e.Fluid.Digest(d) }
func (e *seqEngine) team() *par.Team                 { return inline }
func (e *seqEngine) close()                          {}
func (e *seqEngine) observe(*grid.DigestGrid) error {
	return errors.New("lbmib: the sequential engine samples after its step")
}

// loaded has nothing to re-establish: kernel 4 resets the force itself.
func (e *seqEngine) loaded() {}

// inline is the width-1 team Sequential's readers run on: it starts no
// goroutine and runs every region on the caller.
var inline = par.NewTeam(1)

// inPlaceEngine is every parallel engine — OpenMP and CubeBased: the
// stepping is its schedule's, everything else its core.InPlace state's.
type inPlaceEngine struct {
	*engine.Solver
	onLayout
}

func (e *inPlaceEngine) live() *grid.Grid                 { return e.Live() }
func (e *inPlaceEngine) observe(d *grid.DigestGrid) error { return e.Observe(d) }
func (e *inPlaceEngine) mass() float64                    { return e.Canonical().TotalMass() }
func (e *inPlaceEngine) loaded()                          { e.Loaded() }
func (e *inPlaceEngine) team() *par.Team                  { return e.Team }
func (e *inPlaceEngine) close()                           { e.Close() }
