// Package omp implements the paper's first parallel LBM-IB program
// (Section IV): a loop-parallel solver in the style of the OpenMP
// implementation. Every kernel of Algorithm 1 becomes a parallel-for
// region with an implicit barrier at its end:
//
//   - fluid kernels (5, 6, 7, 9) are parallelized over the x axis, i.e. the
//     grid is divided into contiguous segments of y–z surfaces with a
//     static schedule (Algorithm 2);
//   - fiber kernels (1, 2, 3, 4, 8) are parallelized over fibers
//     (Algorithm 3).
//
// Force spreading (kernel 4) lets different fibers write the same fluid
// node. Each spreading thread accumulates its contributions into a
// private sparse per-x-plane buffer (core.SpreadAccum) and a second
// parallel region reduces the touched planes into the grid in ascending
// thread order — no locks are on the path, and because the schedule is
// static the floating-point accumulation order is identical from run to
// run at a fixed thread count (DESIGN.md §13). The parallel accumulation
// order differs from the sequential solver's fiber order, so results
// match it to floating-point tolerance rather than bitwise (the paper
// likewise validates numerically against the sequential program).
//
// The kernels' loop bodies are internal/core's; this package is the
// schedule — which thread runs them over which slab or fiber range.
package omp

import (
	"time"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
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

	team      *par.Team
	accums    []*core.SpreadAccum // per-thread spreading buffers, one block per x-plane
	spreadGen int                 // current spread generation, stamps accum planes

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
	cs, err := core.NewSolver(cfg.Config)
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
	if cfg.Threads > 1 {
		s.accums = core.NewSpreadAccums(s.Fluid, cfg.Threads, nil)
	}
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
func (s *Solver) forFibers(body func(tid int, sh *fiber.Sheet, nodeLo, nodeHi int)) {
	s.parallelFor(fiber.TotalFibers(s.Sheets), func(tid, lo, hi int) {
		core.ForFibers(s.Sheets, lo, hi, func(sh *fiber.Sheet, a, b int) { body(tid, sh, a, b) })
	})
}

// forSlabs is a parallel region over x-slabs (Algorithm 2): each thread's
// chunk of planes [lo, hi) reaches body with the chunk's node range
// [i, j).
func (s *Solver) forSlabs(body func(lo, hi, i, j int)) {
	nyz := s.Fluid.NY * s.Fluid.NZ
	s.parallelFor(s.Fluid.NX, func(_, lo, hi int) { body(lo, hi, lo*nyz, hi*nyz) })
}

// ComputeBendingForce is kernel 1 parallelized over fibers.
func (s *Solver) ComputeBendingForce() {
	s.forFibers(func(_ int, sh *fiber.Sheet, a, b int) { sh.ComputeBendingForce(a, b) })
}

// ComputeStretchingForce is kernel 2 parallelized over fibers.
func (s *Solver) ComputeStretchingForce() {
	s.forFibers(func(_ int, sh *fiber.Sheet, a, b int) { sh.ComputeStretchingForce(a, b) })
}

// ComputeElasticForce is kernel 3 parallelized over fibers.
func (s *Solver) ComputeElasticForce() {
	s.forFibers(func(_ int, sh *fiber.Sheet, a, b int) { sh.ComputeElasticForce(a, b) })
}

// SpreadForce is kernel 4, parallel over fibers. The force-field reset
// the paper runs here is folded into the previous step's UpdateVelocity
// sweep (and seeded at construction), saving one full-grid pass per
// step; spreading accumulates on top of that reset.
//
// Each thread scatters into its private core.SpreadAccum and a second
// parallel region over x-slabs — each plane has exactly one reducing
// thread — folds the touched planes into the grid; the accumulate
// region's closing barrier orders all writes to the accums before any
// read there. A one-thread team writes the grid directly: spreading
// cannot race there, and buffering would only change the floating-point
// accumulation order away from the sequential solver's fiber order — the
// crosscheck contract expects one-thread runs to be bitwise-equal to the
// sequential reference.
func (s *Solver) SpreadForce() {
	if len(s.Sheets) == 0 {
		return
	}
	if s.Threads == 1 {
		s.forFibers(func(_ int, sh *fiber.Sheet, a, b int) { core.SpreadSheetNodes(s.Fluid, sh, a, b) })
		return
	}
	s.spreadGen++
	gen := s.spreadGen
	s.forFibers(func(tid int, sh *fiber.Sheet, a, b int) {
		acc := s.accums[tid]
		acc.Begin(gen)
		core.SpreadSheetNodes(acc, sh, a, b)
	})
	m, nyz := s.Fluid.Macros(), s.Fluid.NY*s.Fluid.NZ
	s.forSlabs(func(lo, hi, _, _ int) {
		for x := lo; x < hi; x++ {
			core.ReduceSpread(s.accums, m[x*nyz:(x+1)*nyz], x, gen)
		}
	})
}

// ComputeCollision is kernel 5 parallelized over x-slabs (Algorithm 2).
func (s *Solver) ComputeCollision() {
	tau, df, m := s.Tau, s.Fluid.Dist(s.Fluid.Cur()), s.Fluid.Macros()
	s.forSlabs(func(_, _, i, j int) { core.CollideRange(df[i:j], m[i:j], tau) })
}

// StreamDistribution is kernel 6 parallelized over x-slabs. Writes into
// neighbor slabs' post-streaming buffers are race-free because each
// (node, direction) pair has exactly one writer.
func (s *Solver) StreamDistribution() {
	cur := s.Fluid.Cur()
	s.forSlabs(func(lo, hi, _, _ int) {
		for x := lo; x < hi; x++ {
			s.StreamPlane(x, cur)
		}
	})
}

// UpdateVelocity is kernel 7 parallelized over x-slabs. After computing a
// node's moments (which read the elastic force for the half-force
// correction) the pass resets the node's force to the uniform body force —
// the fold that lets SpreadForce skip its own full-grid reset sweep.
func (s *Solver) UpdateVelocity() {
	df, m, body := s.Fluid.Dist(1-s.Fluid.Cur()), s.Fluid.Macros(), s.BodyForce
	s.forSlabs(func(_, _, i, j int) { core.UpdateRange(df[i:j], m[i:j], &body) })
}

// MoveFibers is kernel 8 parallelized over fibers. Fluid velocities are
// read-only here, so no locking is needed.
func (s *Solver) MoveFibers() {
	s.forFibers(func(_ int, sh *fiber.Sheet, a, b int) { core.MoveSheetNodes(s.Fluid, sh, a, b) })
}

// CopyDistribution is kernel 9, retired to an O(1) buffer swap that
// makes the post-streaming buffer the present one. The paper's per-node
// copy survives on the sequential reference (core.Solver), where Table I
// prices it.
func (s *Solver) CopyDistribution() { s.Fluid.Swap() }
