// Package omp implements the paper's first parallel LBM-IB program
// (Section IV): a loop-parallel solver in the style of the OpenMP
// implementation. Every kernel of Algorithm 1 becomes a parallel-for
// region with an implicit barrier at its end:
//
//   - fluid kernels (5, 6 and 7) and force spreading (kernel 4) are
//     parallelized over the x axis, i.e. the grid is divided into
//     contiguous segments of y–z surfaces with a static schedule
//     (Algorithm 2);
//   - fiber kernels (1, 2, 3 and 8) are parallelized over fibers
//     (Algorithm 3).
//
// The grid holds one distribution array, streamed in place by the AA
// pattern (core.AABlock): kernels 5 and 6 run as one region, which
// collides each node and streams it by where it stores the values, and
// kernel 7's region reads the phase that region left. Kernel 6 and
// kernel 9 — which a second array would need for its copy or its swap —
// have no region of their own.
//
// Spreading over fibers, as the paper's Algorithm 3 does, would let two
// threads write one fluid node. Instead each thread walks every fiber
// node in global order and adds only into the planes it owns
// (core.SpreadBox): no lock or private buffer is on the path, and every
// node receives its contributions in the sequential solver's order. The
// engine is therefore bitwise equal to the sequential reference at any
// thread count (DESIGN.md §13), where the paper validates its OpenMP
// program only numerically.
//
// The kernels' loop bodies are internal/core's; this package is the
// schedule — which thread runs them over which slab or fiber range.
package omp

import (
	"time"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/par"
)

// Config configures the OpenMP-style solver.
type Config struct {
	core.Config
	Threads int // parallel region width; 0 means 1
}

// Solver runs LBM-IB time steps with loop-level parallelism. It embeds the
// sequential solver as its state container and overrides each kernel's
// whole-grid loop with a statically scheduled parallel region (one
// contiguous chunk per thread — the paper's default, which it reports as
// performing identically to dynamic).
type Solver struct {
	*core.Solver
	Threads int

	team *par.Team
	// swapped is the phase of the grid's distribution array (core.AABlock):
	// false between steps means natural; kernel 5's region flips it.
	swapped bool

	// Region timing, used only with a Probe attached. curKernel is the
	// kernel Step is running (0 outside Step: an engine layered on this
	// solver reports in its own vocabulary). busy and body are the running
	// region's per-thread times and loop body; timed is timedChunk bound
	// once, so timing a region allocates nothing.
	curKernel core.Kernel
	busy      []time.Duration
	body      func(tid, lo, hi int)
	timed     func(tid, lo, hi int)
}

// NewSolver builds the parallel solver and starts its thread team. Like
// the other parallel constructors it rejects a NaN-unstable Tau <= 0.5.
// Threads is clamped to the x-plane count: the fluid loops parallelize
// over NX slabs, so workers beyond NX would own nothing yet still join
// every region barrier, skewing imbalance attribution toward phantom
// idle threads.
func NewSolver(cfg Config) (*Solver, error) {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Threads > cfg.NX {
		cfg.Threads = cfg.NX
	}
	cs, err := core.NewState(cfg.Config)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		Solver:  cs,
		Threads: cfg.Threads,
		team:    par.NewTeam(cfg.Threads),
		busy:    make([]time.Duration, cfg.Threads),
	}
	s.timed = s.timedChunk
	// Kernel 4 accumulates on top of the reset that UpdateVelocity leaves
	// behind (the force-reset sweep is folded into kernel 7 here); seed
	// the initial body force the same way.
	core.SeedForce(s.Fluid.Macros(), s.BodyForce)
	return s, nil
}

// MustNewSolver is NewSolver for configurations known valid at the call
// site; it panics on error.
func MustNewSolver(cfg Config) *Solver {
	s, err := NewSolver(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Close releases the worker team.
func (s *Solver) Close() { s.team.Close() }

// parallelFor dispatches a loop of n iterations as one contiguous chunk
// per thread. With a probe attached, each thread's busy time inside a
// kernel's region is taken (each thread writes only its own slot) and
// reported once from the coordinator after the implicit barrier — the
// OmpP-style measurement behind the paper's Table II: the rest of the
// region's wall time a thread spent waiting at that barrier.
func (s *Solver) parallelFor(n int, body func(tid, lo, hi int)) {
	probe := s.Probe
	if probe == nil || s.curKernel == 0 {
		s.team.ForStatic(n, body)
		return
	}
	clear(s.busy)
	s.body = body
	s.team.ForStatic(n, s.timed)
	s.body = nil
	probe.Emit(core.Event{Kind: core.RegionDone, Step: s.StepCount(), Kernel: s.curKernel, Busy: s.busy})
}

// timedChunk runs one thread's chunk of the current region under the
// clock.
func (s *Solver) timedChunk(tid, lo, hi int) {
	t0 := time.Now()
	s.body(tid, lo, hi)
	s.busy[tid] = time.Since(t0)
}

// ParallelFor dispatches a loop of n iterations on the solver's worker
// team — the seam for engines layered on this solver (internal/fused)
// to run their own parallel regions on the same team the fiber kernels
// use. Each thread receives exactly one contiguous chunk, the property
// the fused sweep's wavefront relies on.
func (s *Solver) ParallelFor(n int, body func(tid, lo, hi int)) { s.parallelFor(n, body) }

// Step advances one time step by running the nine kernels as parallel
// regions in Algorithm 1 order.
func (s *Solver) Step() {
	run := func(k core.Kernel, fn func()) {
		s.curKernel = k
		s.Timed(core.Event{Kind: core.KernelDone, Step: s.StepCount(), Kernel: k}, fn)
		s.curKernel = 0
	}
	run(core.KComputeBendingForce, s.ComputeBendingForce)
	run(core.KComputeStretchingForce, s.ComputeStretchingForce)
	run(core.KComputeElasticForce, s.ComputeElasticForce)
	run(core.KSpreadForce, s.SpreadForce)
	run(core.KComputeCollision, s.ComputeCollision)
	run(core.KStreamDistribution, s.StreamDistribution)
	run(core.KUpdateVelocity, s.UpdateVelocity)
	run(core.KMoveFibers, s.MoveFibers)
	run(core.KCopyDistribution, s.CopyDistribution)
	if FaultHook != nil {
		FaultHook(s)
	}
	s.AdvanceStep()
}

// FaultHook, when non-nil, is invoked with the live solver after every
// completed step, before the step counter advances. It is a test-only
// seam: the crosscheck harness (internal/crosscheck) installs an
// off-by-one perturbation here to prove its differential oracles detect
// an engine that drifts from the sequential reference. Production code
// never sets it.
var FaultHook func(*Solver)

// Run executes n time steps.
func (s *Solver) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// forFibers is a parallel region over the structure's fibers
// (Algorithm 3): each thread's chunk of the global fiber range reaches
// body as (sheet, node-range) pieces.
func (s *Solver) forFibers(body func(sh *fiber.Sheet, nodeLo, nodeHi int)) {
	s.parallelFor(fiber.TotalFibers(s.Sheets), func(_, lo, hi int) {
		core.ForFibers(s.Sheets, lo, hi, body)
	})
}

// forSlabs is a parallel region over x-slabs (Algorithm 2): each thread's
// chunk of planes [lo, hi) reaches body.
func (s *Solver) forSlabs(body func(lo, hi int)) {
	s.parallelFor(s.Fluid.NX, func(_, lo, hi int) { body(lo, hi) })
}

// ComputeBendingForce is kernel 1 parallelized over fibers.
func (s *Solver) ComputeBendingForce() {
	s.forFibers(func(sh *fiber.Sheet, a, b int) { sh.ComputeBendingForce(a, b) })
}

// ComputeStretchingForce is kernel 2 parallelized over fibers.
func (s *Solver) ComputeStretchingForce() {
	s.forFibers(func(sh *fiber.Sheet, a, b int) { sh.ComputeStretchingForce(a, b) })
}

// ComputeElasticForce is kernel 3 parallelized over fibers.
func (s *Solver) ComputeElasticForce() {
	s.forFibers(func(sh *fiber.Sheet, a, b int) { sh.ComputeElasticForce(a, b) })
}

// SpreadForce is kernel 4 parallelized over x-slabs: each thread
// spreads every fiber node into the planes [lo, hi) it owns
// (core.SpreadBox). The force-field reset the paper runs here is folded
// into the previous step's UpdateVelocity sweep (and seeded at
// construction), saving one full-grid pass per step; spreading
// accumulates on top of that reset.
func (s *Solver) SpreadForce() {
	if len(s.Sheets) == 0 {
		return
	}
	c, ny, nz := s.Fluid.Coupling, s.Fluid.NY, s.Fluid.NZ
	s.forSlabs(func(lo, hi int) {
		core.SpreadBox(c, s.Sheets, grid.Box{Lo: [3]int{lo, 0, 0}, Hi: [3]int{hi, ny, nz}})
	})
}

// ComputeCollision is kernels 5 and 6 as one region over x-slabs
// (Algorithm 2): each plane collides and streams in place
// (core.AABlock), which flips the array's phase. Writes into neighbor
// slabs are race-free because no two nodes share a slot.
func (s *Solver) ComputeCollision() {
	st, df, tau, swapped := s.Stream, s.Fluid.Dist(), s.Tau, s.swapped
	s.forSlabs(func(lo, hi int) {
		for x := lo; x < hi; x++ {
			core.AABlock(st, df, x, tau, swapped)
		}
	})
	s.swapped = !swapped
}

// StreamDistribution is kernel 6, which ComputeCollision's region ran:
// streaming in place is where the collided values are stored.
func (s *Solver) StreamDistribution() {}

// UpdateVelocity is kernel 7 parallelized over x-slabs, at the phase
// kernel 5's region left (core.AAMomentsBlock). After computing a node's
// moments (which read the elastic force for the half-force correction)
// the pass resets the node's force to the uniform body force — the fold
// that lets SpreadForce skip its own full-grid reset sweep.
func (s *Solver) UpdateVelocity() {
	st, df, swapped, body := s.Stream, s.Fluid.Dist(), s.swapped, s.BodyForce
	s.forSlabs(func(lo, hi int) {
		for x := lo; x < hi; x++ {
			core.AAMomentsBlock(st, df, x, swapped, &body)
		}
	})
}

// MoveFibers is kernel 8 parallelized over fibers. Fluid velocities are
// read-only here, so no locking is needed.
func (s *Solver) MoveFibers() {
	s.forFibers(func(sh *fiber.Sheet, a, b int) { core.MoveSheetNodes(s.Fluid.Coupling, sh, a, b) })
}

// CopyDistribution is kernel 9, retired: streaming in place leaves no
// second array to copy back. The paper's per-node copy survives on the
// sequential reference (core.Solver), where Table I prices it.
func (s *Solver) CopyDistribution() {}

// Live returns the grid with its distributions in the natural phase,
// canonicalizing the array in place if a step left it swapped. Call it
// between steps only.
func (s *Solver) Live() *grid.Grid {
	if s.swapped {
		core.Canonicalize(s.Stream, s.Fluid.Dist())
		s.swapped = false
	}
	return s.Fluid
}
