// Package engine implements the paper's two parallel LBM-IB programs as
// two schedules over one set of per-worker loops. Both run the nine
// kernels of Algorithm 1 over the blocks and fibers each worker owns; they
// differ only in when the team joins.
//
//   - The OpenMP schedule (Section IV, NewOpenMP) runs every kernel as one
//     parallel region with an implicit barrier at its end. Fluid kernels
//     are parallelized over x-planes, one contiguous chunk of y–z planes
//     per worker under a static schedule (Algorithm 2); fiber kernels over
//     fibers (Algorithm 3).
//   - The cube schedule (Section V, Algorithm 4, NewCube) stores the fluid
//     as contiguous k×k×k cubes that the data-distribution function
//     cube2thread maps onto a P×Q×R logical thread mesh, and fibers with
//     fiber2thread. Every worker runs the whole time-step loop over what it
//     owns and synchronizes with a small number of global barriers.
//
// Ownership is resolved once, at construction, into per-worker tables:
// the blocks a worker collides (x-planes or cubes), the lattice box they
// form, and its half-open range of global fibers. The loops over those
// tables — kernels 1–3 and 8 over the worker's fibers, the spread into its
// box, the collide of its blocks and the moments of its share of the
// support — are written once, in this file; the schedules (openmp.go,
// cube.go) only decide where the team joins. The loops' bodies are
// internal/core's, and so is the state they run over (core.InPlace: the
// grid, its phase bit, the records' support and the team).
//
// The grid holds one distribution array, streamed in place by the AA
// pattern (core.AABlock): kernels 5 and 6 are one pass that collides each
// node and streams it by where it stores the values, so kernel 6 and
// kernel 9 — which a second array would need for its copy or its swap —
// have no loop of their own. Kernel 7 runs only on the blocks the
// structure's stencils reach (core.Support), dealt evenly over the team
// (core.Share); every other block's moments are folded into its next
// collide, so a fluid-only step is one pass over the fluid.
//
// Spreading is owner-computes: each worker walks every fiber node in
// global order and adds only into the box it owns (core.SpreadBox). No two
// workers write one node, no lock or private buffer is on the path, and
// every node receives its contributions in the sequential solver's order,
// so both schedules are bitwise equal to the sequential reference at any
// thread count (DESIGN.md §13). This replaces the paper's schemes — the
// OpenMP program's spread over fibers, the cube program's per-owner locks.
package engine

import (
	"slices"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/par"
)

// Solver runs LBM-IB time steps on a worker team under one of the two
// schedules. Its state is core.InPlace's; the blocks of the Support are
// the grid's blocks, x-planes or cubes.
type Solver struct {
	*core.InPlace

	// owned[tid] lists worker tid's blocks in block-index order, box[tid]
	// is the lattice box they form, and fibers[tid] is its half-open
	// range of global fiber indices.
	owned  [][]int
	box    []grid.Box
	fibers [][2]int

	// barrier is the cube schedule's global barrier; nil selects the
	// OpenMP schedule. timedBarrier wraps it for a Probe.
	barrier      *par.Barrier
	timedBarrier par.TimedBarrier

	// OpenMP region timing, used only with a Probe attached: busy and
	// body are the running region's per-worker times and loop body,
	// kernel its kernel; timed is timedBody bound once, so timing a
	// region allocates nothing.
	busy   []time.Duration
	body   func(tid int)
	kernel core.Kernel
	timed  func(tid int)

	// kernels are the OpenMP step's nine kernels, bound once
	// (bindOpenMP); phase is the array's phase the running collide or
	// moments region reads.
	kernels [core.NumKernels]func()
	phase   bool

	// The cube run in progress: its first step, its length and the
	// array's phase before it; cubeRun is cubeWorker bound once.
	runFirst, runN int
	runPhase       bool
	cubeRun        func(tid int)
}

// newSolver builds the state over fluid with a team of threads workers
// and empty ownership tables. Like every parallel constructor it rejects
// a NaN-unstable Tau <= 0.5.
func newSolver(cfg core.Config, fluid *grid.Grid, threads int) (*Solver, error) {
	st, err := core.NewInPlace(cfg, fluid, threads)
	if err != nil {
		return nil, err
	}
	return &Solver{
		InPlace: st,
		owned:   make([][]int, threads),
		box:     make([]grid.Box, threads),
		fibers:  make([][2]int, threads),
	}, nil
}

// NewOpenMP builds the OpenMP schedule over a slab grid: worker tid owns
// the planes and the fibers OpenMP's static schedule deals it
// (par.StaticRange). Threads below 1 means 1, and threads is clamped to
// the x-plane count: workers beyond NX would own no plane yet still join
// every region, skewing imbalance attribution toward phantom idle
// workers.
func NewOpenMP(cfg core.Config, threads int) (*Solver, error) {
	threads = min(max(threads, 1), cfg.NX)
	s, err := newSolver(cfg, grid.New(cfg.NX, cfg.NY, cfg.NZ), threads)
	if err != nil {
		return nil, err
	}
	total := fiber.TotalFibers(s.Sheets)
	for tid := range threads {
		lo, hi := par.StaticRange(cfg.NX, threads, tid)
		for x := lo; x < hi; x++ {
			s.owned[tid] = append(s.owned[tid], x)
		}
		s.box[tid] = grid.Box{Lo: [3]int{lo, 0, 0}, Hi: [3]int{hi, cfg.NY, cfg.NZ}}
		s.fibers[tid][0], s.fibers[tid][1] = par.StaticRange(total, threads, tid)
	}
	s.busy = make([]time.Duration, threads)
	s.timed = s.timedBody
	s.bindOpenMP()
	return s, nil
}

// NewCube builds the cube schedule over a grid of k³ cubes (k 0 means 4;
// the fluid dimensions must be multiples of k): cube2thread deals the
// cubes over the P×Q×R mesh and fiber2thread the fibers. Threads below 1
// means 1, and a count the cube mesh cannot feed is clamped down (see
// effectiveThreads): every worker owns at least one cube.
func NewCube(cfg core.Config, k, threads int) (*Solver, error) {
	if k == 0 {
		k = 4
	}
	fluid, err := grid.NewBlocked(cfg.NX, cfg.NY, cfg.NZ, [3]int{k, k, k})
	if err != nil {
		return nil, err
	}
	nc := fluid.Blocks()
	threads = effectiveThreads(max(threads, 1), nc)
	s, err := newSolver(cfg, fluid, threads)
	if err != nil {
		return nil, err
	}
	m := par.CubeMap{CX: nc[0], CY: nc[1], CZ: nc[2], Mesh: par.NewMesh(threads)}
	for c := 0; c < fluid.NumBlocks(); c++ {
		o, _ := fluid.BlockBox(c)
		tid := m.CubeToThread(o[0]/k, o[1]/k, o[2]/k)
		s.owned[tid] = append(s.owned[tid], c)
	}
	for tid := range s.box {
		lo, hi := m.Box(tid)
		for a := range lo {
			s.box[tid].Lo[a], s.box[tid].Hi[a] = lo[a]*k, hi[a]*k
		}
	}
	total := fiber.TotalFibers(s.Sheets)
	for g := 0; g < total; g++ {
		r := &s.fibers[par.FiberToThread(g, total, threads)]
		if r[1] == 0 {
			r[0] = g
		}
		r[1] = g + 1
	}
	s.barrier = par.NewBarrier(threads)
	s.timedBarrier = par.TimedBarrier{B: s.barrier, Arrive: s.BarrierArrived}
	s.cubeRun = s.cubeWorker
	return s, nil
}

// effectiveThreads clamps a requested worker count so that every worker
// owns at least one cube under the resulting P×Q×R mesh: the largest
// count (≤ requested) whose distribution leaves no worker empty. Requesting
// more workers than cubes — or a mesh whose axis factors strand a mesh
// coordinate with an empty axis range — would otherwise produce idle
// workers that still join every barrier, skewing the imbalance
// attribution toward the phantom workers.
func effectiveThreads(requested int, cubes [3]int) int {
	t := min(requested, cubes[0]*cubes[1]*cubes[2])
	for t > 1 && slices.Contains(par.CubeMap{CX: cubes[0], CY: cubes[1], CZ: cubes[2], Mesh: par.NewMesh(t)}.Counts(), 0) {
		t--
	}
	return t
}

// Box returns the lattice box worker tid owns: the planes or cubes it
// collides and spreads into.
func (s *Solver) Box(tid int) grid.Box { return s.box[tid] }

// Step advances one time step.
func (s *Solver) Step() { s.Run(1) }

// Run executes n time steps under the solver's schedule. A digest the
// first of them was asked to take (core.InPlace.Observe) is complete
// when Run returns.
func (s *Solver) Run(n int) {
	if s.barrier != nil {
		s.runCube(n)
	} else {
		for range n {
			s.stepOpenMP()
		}
	}
	s.EndSweep()
}

// fiberLoop runs body over worker tid's fibers as (sheet, node-range)
// pieces in global fiber order: kernels 1–3 and 8 (Algorithm 3's chunk,
// Algorithm 4's "for each fiber ... if fiber2thread(i) == tid").
func (s *Solver) fiberLoop(tid int, body func(sh *fiber.Sheet, nodeLo, nodeHi int)) {
	core.ForFibers(s.Sheets, s.fibers[tid][0], s.fibers[tid][1], body)
}

// fiberForces is kernels 1–3 on one piece of a sheet, fused.
func fiberForces(sh *fiber.Sheet, lo, hi int) {
	sh.ComputeBendingForce(lo, hi)
	sh.ComputeStretchingForce(lo, hi)
	sh.ComputeElasticForce(lo, hi)
}

// moveNodes is kernel 8 on one piece of a sheet. Fluid velocities are
// read-only here, so no locking is needed.
func (s *Solver) moveNodes(sh *fiber.Sheet, lo, hi int) {
	core.MoveSheetNodes(s.Fluid.Coupling, sh, lo, hi)
}

// spreadLoop is kernel 4 of the k-th step of the run into worker tid's
// box: the owner is the only worker writing its nodes' forces and marking
// its blocks in the step's support (core.SpreadBox). Spreading
// accumulates on top of the force reset the previous step's moments pass
// left (and construction seeded), saving the paper's full-grid reset.
func (s *Solver) spreadLoop(tid, k int) {
	_, reach := s.Support.Sets(k)
	core.SpreadBox(s.Fluid.Coupling, s.Sheets, s.box[tid], reach)
}

// collideLoop is kernels 5 and 6 of the k-th step of the run over worker
// tid's blocks, fused per block and streamed in place from the array's
// phase swapped (core.AABlock); a block with a stale record folds its
// moments in (core.Support.Take). Writes into neighbouring workers'
// blocks are race-free because no two nodes share a slot. On an observed
// step (core.InPlace.Sink) each block also digests the state it
// overwrites into its own slots, which only its owner writes.
func (s *Solver) collideLoop(tid, k int, swapped bool) {
	df := s.Fluid.Dist()
	dg := s.Sink(k)
	for _, b := range s.owned[tid] {
		fold, force := s.Support.Take(k, b, &s.BodyForce)
		core.AABlock(s.Stream, df, b, s.Tau, swapped, fold, force, dg)
	}
}

// momentsLoop is kernel 7 of the k-th step of the run over worker tid's
// share of the step's support (core.Share) at the array's phase swapped,
// resetting each node's force to the uniform body force in the same pass —
// the fold that lets spreadLoop skip its own reset. Every other block's
// record is left stale for its next collide. The support is dealt evenly
// over the team, not by ownership: a structure's stencils reach a few
// neighbouring blocks, which one worker's box would hold. The team must
// join between the collide and this loop (a region join, or
// after_stream), so that every block it reads was streamed.
func (s *Solver) momentsLoop(tid, k int, swapped bool) {
	_, reach := s.Support.Sets(k)
	df := s.Fluid.Dist()
	lo, hi := core.Share(reach, s.Threads(), tid)
	for b := lo; b < hi; b++ {
		if reach[b] {
			core.AAMomentsBlock(s.Stream, df, b, swapped, &s.BodyForce)
		}
	}
}
