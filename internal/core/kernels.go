// Package core holds the LBM-IB kernels every engine executes and the
// sequential solver of Section III of the paper.
//
// The loop bodies of the nine kernels exist once, here (bodies.go),
// written against the one fluid container, grid.Grid, whatever its block
// extent: x-planes or k³ cubes. An engine — this package's sequential
// Solver, internal/engine's OpenMP and cube schedules — is a schedule: it
// decides which thread runs which body over which blocks and where the
// barriers stand, and restates none of the
// arithmetic, which is what keeps the engines bitwise comparable. The
// arithmetic of a fluid node itself — collision with forcing, and the
// moments — is one level further down, in lattice.Collide and
// lattice.Moments; CollideRange and UpdateRange are loops over them, and
// so are the in-place bodies AABlock and AAMomentsBlock. Likewise a
// fiber node's 64 stencil points: SpreadBox and MoveSheetNodes make one call per fiber node, and
// the point loops, with the periodic wrap, are grid.Coupling's.
//
// The sequential Solver keeps the kernel decomposition exactly as
// published — Algorithm 1, including kernel 6's second distribution array
// and kernel 9's explicit copy back, which streaming in place eliminates —
// because the paper's Table I profiles these nine functions. Each kernel
// is an exported method so a harness can time it alone. The parallel
// engines hold one distribution array and stream in place (AABlock).
//
// probe.go declares the event contract (Probe) through which every
// schedule reports its timings, next to the Kernel, Phase and BarrierSite
// vocabularies the events are stamped with.
package core

import (
	"fmt"
	"math"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
)

// Kernel identifies one of the nine LBM-IB computational kernels, numbered
// as in Algorithm 1 and Table I of the paper.
type Kernel int

// The nine kernels of the LBM-IB method.
const (
	KComputeBendingForce    Kernel = iota + 1 // 1) compute_bending_force_in_fibers
	KComputeStretchingForce                   // 2) compute_stretching_force_in_fibers
	KComputeElasticForce                      // 3) compute_elastic_force_in_fibers
	KSpreadForce                              // 4) spread_force_from_fibers_to_fluid
	KComputeCollision                         // 5) compute_fluid_collision
	KStreamDistribution                       // 6) stream_fluid_velocity_distribution
	KUpdateVelocity                           // 7) update_fluid_velocity
	KMoveFibers                               // 8) move_fibers
	KCopyDistribution                         // 9) copy_fluid_velocity_distribution
)

// NumKernels is the number of LBM-IB kernels.
const NumKernels = 9

var kernelNames = [NumKernels + 1]string{
	"",
	"compute_bending_force_in_fibers",
	"compute_stretching_force_in_fibers",
	"compute_elastic_force_in_fibers",
	"spread_force_from_fibers_to_fluid",
	"compute_fluid_collision",
	"stream_fluid_velocity_distribution",
	"update_fluid_velocity",
	"move_fibers",
	"copy_fluid_velocity_distribution",
}

// String returns the paper's name for the kernel.
func (k Kernel) String() string {
	if k < 1 || k > NumKernels {
		return "unknown_kernel"
	}
	return kernelNames[k]
}

// Kernels lists all nine kernels in Algorithm 1 execution order.
func Kernels() []Kernel {
	ks := make([]Kernel, NumKernels)
	for i := range ks {
		ks[i] = Kernel(i + 1)
	}
	return ks
}

// BC selects the boundary condition applied to one axis of the fluid
// domain.
type BC int

const (
	// Periodic wraps the axis.
	Periodic BC = iota
	// BounceBack places halfway bounce-back (no-slip) walls at both ends
	// of the axis.
	BounceBack
)

// Config assembles a sequential LBM-IB problem. The immersed structure is
// a set of independent fiber sheets (the paper: "a 3D flexible structure
// ... can be comprised of a number of 2-D sheets"); Sheet is a
// single-sheet convenience that is appended to Sheets.
type Config struct {
	NX, NY, NZ    int        // fluid grid dimensions
	Tau           float64    // BGK relaxation time (> 0.5)
	BodyForce     [3]float64 // uniform driving force density (pressure-gradient surrogate)
	BCX, BCY, BCZ BC         // per-axis boundary conditions
	// LidVelocity is the tangential velocity of the z-max wall when BCZ
	// is BounceBack (Ladd's momentum-exchange bounce-back), enabling
	// lid-driven and Couette flows. The other walls are stationary.
	LidVelocity [3]float64
	Sheet       *fiber.Sheet
	Sheets      []*fiber.Sheet
}

// Problem is the engine-independent part of a configured problem: what
// every engine holds besides its fluid container and its schedule.
type Problem struct {
	Sheets        []*fiber.Sheet // Config.Sheets with the convenience Sheet appended
	Tau           float64
	BodyForce     [3]float64
	BCX, BCY, BCZ BC
	LidVelocity   [3]float64

	// Probe, when non-nil, receives the timing events of whichever
	// schedule runs the problem — every engine's one instrumentation
	// attach point. Set it between steps; nil (the default) costs one
	// branch per kernel or phase and reads no clock.
	Probe Probe
}

// NewProblem resolves a Config into the state the kernels read. A zero
// Tau defaults to 0.6; any other Tau that ValidateTau rejects is an
// error.
func NewProblem(cfg Config) (Problem, error) {
	if cfg.Tau == 0 { // the documented "unset" sentinel; real values are vetted by ValidateTau
		cfg.Tau = 0.6
	}
	if err := ValidateTau(cfg.Tau); err != nil {
		return Problem{}, err
	}
	sheets := append([]*fiber.Sheet(nil), cfg.Sheets...)
	if cfg.Sheet != nil {
		sheets = append(sheets, cfg.Sheet)
	}
	return Problem{
		Sheets: sheets, Tau: cfg.Tau, BodyForce: cfg.BodyForce,
		BCX: cfg.BCX, BCY: cfg.BCY, BCZ: cfg.BCZ, LidVelocity: cfg.LidVelocity,
	}, nil
}

// Sheet returns the first immersed sheet (nil without a structure); a
// convenience for the common single-sheet setup.
func (p *Problem) Sheet() *fiber.Sheet {
	if len(p.Sheets) == 0 {
		return nil
	}
	return p.Sheets[0]
}

// StreamBC returns the problem's boundary conditions bound to an
// nx×ny×nz domain.
func (p *Problem) StreamBC(nx, ny, nz int) StreamBC {
	return StreamBC{
		NX: nx, NY: ny, NZ: nz,
		BCX: p.BCX, BCY: p.BCY, BCZ: p.BCZ,
		LidVelocity: p.LidVelocity,
	}
}

// ValidateTau checks that a BGK relaxation time is stable: τ must be a
// finite value exceeding 0.5, or the effective viscosity 3(τ−½) is
// non-positive (or undefined) and the collision amplifies perturbations
// into NaNs. NaN and ±Inf are rejected explicitly — NaN compares false
// against every threshold, and an infinite τ makes the collision operator
// a silent no-op. NewProblem applies it for every engine.
func ValidateTau(tau float64) error {
	if math.IsNaN(tau) || math.IsInf(tau, 0) || tau <= 0.5 {
		return fmt.Errorf("tau %g must be a finite value exceeding 0.5 (viscosity must be positive)", tau)
	}
	return nil
}

// Solver is the sequential reference LBM-IB solver (Algorithm 1): the
// shared loop bodies run over the whole slab grid on the calling
// goroutine, one kernel after another. The parallel engines stream in
// place and hold their state apart (InPlace).
type Solver struct {
	Problem
	Fluid *grid.Grid
	// Stream is the grid's stream geometry under the problem's boundary
	// conditions.
	Stream *Streamer

	step int
	// next is kernel 6's post-streaming array, direction-major as
	// Fluid's, which kernel 9 copies back into Fluid's; only the
	// sequential engine has it.
	next []float64
}

// NewSolver builds the sequential solver with the fluid at rest. An empty
// structure is allowed and yields a pure-LBM simulation (useful for
// fluid-only validation such as Poiseuille flow). A zero Tau defaults to
// 0.6; any other Tau at or below 0.5 is rejected as NaN-unstable.
func NewSolver(cfg Config) (*Solver, error) {
	p, err := NewProblem(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &Solver{Problem: p, Fluid: grid.New(cfg.NX, cfg.NY, cfg.NZ)}
	s.Stream = NewStreamer(s.Fluid, p.StreamBC(cfg.NX, cfg.NY, cfg.NZ))
	s.next = make([]float64, len(s.Fluid.Dist()))
	return s, nil
}

// MustNewSolver is NewSolver for configurations known valid at the call
// site (tests, hard-coded experiment setups); it panics on error.
func MustNewSolver(cfg Config) *Solver {
	s, err := NewSolver(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// StepCount returns how many time steps have been executed.
func (s *Solver) StepCount() int { return s.step }

// AdvanceStep increments the step counter without running kernels, for
// a harness that drives the kernel methods one by one.
func (s *Solver) AdvanceStep() { s.step++ }

// Step advances the simulation one time step by executing the nine kernels
// of Algorithm 1 in order.
func (s *Solver) Step() {
	run := func(k Kernel, fn func()) { s.Timed(Event{Kind: KernelDone, Step: s.step, Kernel: k}, fn) }
	run(KComputeBendingForce, s.ComputeBendingForce)
	run(KComputeStretchingForce, s.ComputeStretchingForce)
	run(KComputeElasticForce, s.ComputeElasticForce)
	run(KSpreadForce, s.SpreadForce)
	run(KComputeCollision, s.ComputeCollision)
	run(KStreamDistribution, s.StreamDistribution)
	run(KUpdateVelocity, s.UpdateVelocity)
	run(KMoveFibers, s.MoveFibers)
	run(KCopyDistribution, s.CopyDistribution)
	s.step++
}

// Run executes n time steps.
func (s *Solver) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// ComputeBendingForce is kernel 1.
func (s *Solver) ComputeBendingForce() {
	for _, sh := range s.Sheets {
		sh.ComputeBendingForce(0, sh.NumNodes())
	}
}

// ComputeStretchingForce is kernel 2.
func (s *Solver) ComputeStretchingForce() {
	for _, sh := range s.Sheets {
		sh.ComputeStretchingForce(0, sh.NumNodes())
	}
}

// ComputeElasticForce is kernel 3.
func (s *Solver) ComputeElasticForce() {
	for _, sh := range s.Sheets {
		sh.ComputeElasticForce(0, sh.NumNodes())
	}
}

// SpreadForce is kernel 4: it resets the fluid force field to the uniform
// body force and spreads every fiber node's elastic force onto the fluid
// nodes of its 4×4×4 influential domain through the smoothed Dirac delta.
func (s *Solver) SpreadForce() {
	SeedForce(s.Fluid.Macros(), s.BodyForce)
	SpreadBox(s.Fluid.Coupling, s.Sheets, s.Fluid.Whole(), nil)
}

// ComputeCollision is kernel 5: the D3Q19 BGK collision with the elastic
// body force applied at every fluid node, in the 19 directions of the model.
func (s *Solver) ComputeCollision() {
	CollideRange(s.Fluid.Dist(), s.Fluid.Stride(), 0, s.Fluid.Macros(), s.Tau)
}

// StreamDistribution is kernel 6: it pushes each node's post-collision
// distribution to its 18 immediate neighbors' slots in the post-streaming
// array, applying periodic wrap or halfway bounce-back per axis.
func (s *Solver) StreamDistribution() {
	for x := 0; x < s.Fluid.NX; x++ {
		s.Stream.Block(x, s.next)
	}
}

// UpdateVelocity is kernel 7: it recomputes each fluid node's density and
// velocity from the post-streaming distribution and the elastic force
// (half-force Guo correction).
func (s *Solver) UpdateVelocity() { UpdateRange(s.next, s.Fluid.Stride(), 0, s.Fluid.Macros(), nil) }

// MoveFibers is kernel 8: each fiber node's velocity is interpolated from
// the surrounding fluid nodes of its influential domain, and the node is
// advected one time step (explicit Euler). Fixed nodes keep their position
// and report zero velocity.
func (s *Solver) MoveFibers() {
	for _, sh := range s.Sheets {
		MoveSheetNodes(s.Fluid.Coupling, sh, 0, sh.NumNodes())
	}
}

// CopyDistribution is kernel 9: it copies the post-streaming array into
// the present one so the former can be reused next step. The sequential
// reference keeps this copy exactly as the paper publishes it (Table I
// prices it at ~6% of a step); the parallel engines stream in place and
// have no second array to copy (AABlock).
func (s *Solver) CopyDistribution() {
	CopyRange(s.Fluid.Dist(), s.next, s.Fluid.Stride(), 0, s.Fluid.NumNodes())
}
