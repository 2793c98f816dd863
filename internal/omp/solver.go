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
// node. By default each spreading thread accumulates its contributions
// into a private sparse per-x-plane buffer and a second parallel region
// reduces the touched planes into the grid in ascending thread order —
// no locks remain on the path, and under the Static schedule the
// floating-point accumulation order is identical from run to run at a
// fixed thread count (DESIGN.md §13). The parallel accumulation order
// differs from the sequential solver's fiber order, so results match it
// to floating-point tolerance rather than bitwise (the paper likewise
// validates numerically against the sequential program).
package omp

import (
	"time"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/ibm"
	"lbmib/internal/par"
)

// Schedule selects the loop schedule of the parallel-for regions.
type Schedule int

const (
	// Static divides each loop into one contiguous chunk per thread
	// (the paper's default; it reports identical performance for dynamic).
	Static Schedule = iota
	// Dynamic lets idle threads steal fixed-size chunks.
	Dynamic
)

// Config configures the OpenMP-style solver.
type Config struct {
	core.Config
	Threads  int      // parallel region width; 0 means 1
	Schedule Schedule // loop schedule (default Static)
	Chunk    int      // dynamic-schedule chunk size (default 1 slab/fiber)
}

// Solver runs LBM-IB time steps with loop-level parallelism. It embeds the
// sequential solver as its state container and per-node kernel bodies, and
// overrides the per-kernel loops with parallel regions.
type Solver struct {
	*core.Solver
	Threads  int
	Schedule Schedule
	Chunk    int

	// Regions, when non-nil, receives per-thread busy times for every
	// parallel region. It defaults to nil (zero overhead).
	Regions RegionObserver

	team      *par.Team
	accums    []*planeAccum // per-thread spreading buffers
	spreadGen int           // current spread generation, stamps accum planes
	curKernel core.Kernel   // kernel whose region is running, for Regions
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
	if cfg.Chunk < 1 {
		cfg.Chunk = 1
	}
	cs, err := core.NewSolver(cfg.Config)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		Solver:   cs,
		Threads:  cfg.Threads,
		Schedule: cfg.Schedule,
		Chunk:    cfg.Chunk,
		team:     par.NewTeam(cfg.Threads),
	}
	if cfg.Threads > 1 {
		s.accums = make([]*planeAccum, cfg.Threads)
		for i := range s.accums {
			s.accums[i] = newPlaneAccum(cfg.NX)
		}
	}
	// Kernel 4 accumulates on top of the reset that UpdateVelocity leaves
	// behind (the force-reset sweep is folded into kernel 7 here); seed
	// the initial body force the same way.
	s.SeedForce()
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

// SeedForce initializes every node's force to the uniform body force —
// the invariant UpdateVelocity maintains between steps. It must be called
// after loading external state into the fluid grid (e.g. a checkpoint)
// because SpreadForce no longer resets the field itself.
func (s *Solver) SeedForce() {
	body := s.BodyForce
	for i := range s.Fluid.Nodes {
		s.Fluid.Nodes[i].Force = body
	}
}

// Close releases the worker team.
func (s *Solver) Close() { s.team.Close() }

// parallelFor dispatches a loop of n iterations under the configured
// schedule. With a RegionObserver attached, each thread's busy time
// inside the region is accumulated (each thread writes only its own
// slot) and reported once from the coordinator after the implicit
// barrier.
func (s *Solver) parallelFor(n int, body func(tid, lo, hi int)) {
	run := body
	obs := s.Regions
	var busy []time.Duration
	if obs != nil {
		busy = make([]time.Duration, s.Threads)
		run = func(tid, lo, hi int) {
			t0 := time.Now()
			body(tid, lo, hi)
			busy[tid] += time.Since(t0)
		}
	}
	if s.Schedule == Dynamic {
		s.team.ForDynamic(n, s.Chunk, run)
	} else {
		s.team.ForStatic(n, run)
	}
	if obs != nil {
		obs.RegionDone(s.StepCount(), s.curKernel, busy)
	}
}

// ParallelFor dispatches a loop of n iterations on the solver's worker
// team under the configured schedule — the seam for engines layered on
// this solver (internal/fused) to run their own parallel regions on the
// same team the fiber kernels use. Under the Static schedule each thread
// receives exactly one contiguous chunk, the property the fused sweep's
// wavefront relies on.
func (s *Solver) ParallelFor(n int, body func(tid, lo, hi int)) { s.parallelFor(n, body) }

// Step advances one time step by running the nine kernels as parallel
// regions in Algorithm 1 order.
func (s *Solver) Step() {
	run := func(k core.Kernel, fn func()) {
		s.curKernel = k
		if s.Observer == nil {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		s.Observer.KernelDone(s.StepCount(), k, time.Since(t0))
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

// forEachFiber runs body over the global fiber range [lo, hi) mapped onto
// (sheet, node-range) pieces — the fiber loops of Algorithm 3 generalized
// to a multi-sheet structure.
func (s *Solver) forEachFiber(lo, hi int, body func(sh *fiber.Sheet, nodeLo, nodeHi int)) {
	for g := lo; g < hi; {
		sh, f := fiber.Locate(s.Sheets, g)
		// Extend to the run of fibers of this sheet inside [g, hi).
		run := sh.NumFibers - f
		if g+run > hi {
			run = hi - g
		}
		body(sh, f*sh.NodesPerFiber, (f+run)*sh.NodesPerFiber)
		g += run
	}
}

// ComputeBendingForce is kernel 1 parallelized over fibers.
func (s *Solver) ComputeBendingForce() {
	s.parallelFor(fiber.TotalFibers(s.Sheets), func(_, lo, hi int) {
		s.forEachFiber(lo, hi, func(sh *fiber.Sheet, a, b int) { sh.ComputeBendingForce(a, b) })
	})
}

// ComputeStretchingForce is kernel 2 parallelized over fibers.
func (s *Solver) ComputeStretchingForce() {
	s.parallelFor(fiber.TotalFibers(s.Sheets), func(_, lo, hi int) {
		s.forEachFiber(lo, hi, func(sh *fiber.Sheet, a, b int) { sh.ComputeStretchingForce(a, b) })
	})
}

// ComputeElasticForce is kernel 3 parallelized over fibers.
func (s *Solver) ComputeElasticForce() {
	s.parallelFor(fiber.TotalFibers(s.Sheets), func(_, lo, hi int) {
		s.forEachFiber(lo, hi, func(sh *fiber.Sheet, a, b int) { sh.ComputeElasticForce(a, b) })
	})
}

// SpreadForce is kernel 4, parallel over fibers. The force-field reset
// the paper runs here is folded into the previous step's UpdateVelocity
// sweep (and seeded at construction), saving one full-grid pass per
// step; spreading accumulates on top of that reset.
//
// Each thread scatters into its private planeAccum and a second
// parallel region reduces the touched planes into the grid (see
// spread.go); a one-thread team writes the grid directly.
func (s *Solver) SpreadForce() {
	if len(s.Sheets) == 0 {
		return
	}
	if s.Threads == 1 {
		s.parallelFor(fiber.TotalFibers(s.Sheets), func(_, lo, hi int) {
			acc := gridWriter{s: s}
			s.forEachFiber(lo, hi, func(sh *fiber.Sheet, a, b int) {
				area := sh.AreaElement()
				for i := a; i < b; i++ {
					ibm.Spread(acc, sh.X[i], sh.Force[i], area)
				}
			})
		})
		return
	}
	s.spreadGen++
	gen := s.spreadGen
	s.parallelFor(fiber.TotalFibers(s.Sheets), func(tid, lo, hi int) {
		acc := &planeWriter{s: s, acc: s.accums[tid], gen: gen}
		s.forEachFiber(lo, hi, func(sh *fiber.Sheet, a, b int) {
			area := sh.AreaElement()
			for i := a; i < b; i++ {
				ibm.Spread(acc, sh.X[i], sh.Force[i], area)
			}
		})
	})
	s.reduceSpread(gen)
}

// ComputeCollision is kernel 5 parallelized over x-slabs (Algorithm 2).
func (s *Solver) ComputeCollision() {
	g := s.Fluid
	tau := s.Tau
	cur := g.Cur()
	s.parallelFor(g.NX, func(_, lo, hi int) {
		for i := lo * g.NY * g.NZ; i < hi*g.NY*g.NZ; i++ {
			core.CollideNodeBuf(&g.Nodes[i], tau, cur)
		}
	})
}

// StreamDistribution is kernel 6 parallelized over x-slabs. Writes into
// neighbor slabs' DFNew are race-free because each (node, direction) pair
// has exactly one writer.
func (s *Solver) StreamDistribution() {
	g := s.Fluid
	s.parallelFor(g.NX, func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			for y := 0; y < g.NY; y++ {
				for z := 0; z < g.NZ; z++ {
					s.StreamNode(x, y, z)
				}
			}
		}
	})
}

// UpdateVelocity is kernel 7 parallelized over x-slabs. After computing a
// node's moments (which read the elastic force for the half-force
// correction) it resets the node's force to the uniform body force — the
// fold that lets SpreadForce skip its own full-grid reset sweep.
func (s *Solver) UpdateVelocity() {
	g := s.Fluid
	next := 1 - g.Cur()
	body := s.BodyForce
	s.parallelFor(g.NX, func(_, lo, hi int) {
		for i := lo * g.NY * g.NZ; i < hi*g.NY*g.NZ; i++ {
			core.UpdateVelocityNodeBuf(&g.Nodes[i], next)
			g.Nodes[i].Force = body
		}
	})
}

// MoveFibers is kernel 8 parallelized over fibers. Fluid velocities are
// read-only here, so no locking is needed.
func (s *Solver) MoveFibers() {
	g := s.Fluid
	s.parallelFor(fiber.TotalFibers(s.Sheets), func(_, lo, hi int) {
		s.forEachFiber(lo, hi, func(sh *fiber.Sheet, a, b int) {
			core.MoveSheetNodes(g, sh, a, b)
		})
	})
}

// CopyDistribution is kernel 9, retired to an O(1) buffer swap that
// makes the post-streaming buffer the present one. The paper's per-node
// copy survives on the sequential reference (core.Solver), where Table I
// prices it.
func (s *Solver) CopyDistribution() { s.Fluid.Swap() }
