// Package cubesolver implements the paper's contribution: the cube-centric
// multithreaded LBM-IB algorithm of Section V (Algorithm 4).
//
// The fluid grid is stored as contiguous k×k×k cubes (internal/cube) that
// the data-distribution function cube2thread maps onto a P×Q×R logical
// thread mesh; fibers are mapped with fiber2thread. Every worker executes
// the whole time-step loop over the cubes and fibers it owns — resolved
// once at construction — and synchronizes with a small number of global
// barriers. The kernels' loop bodies are internal/core's; this package
// is the schedule: ownership, loop fusion per cube, and the barrier
// sites. The layout holds one distribution array, streamed in place by
// the AA pattern (core.AABlock), so kernel 9 has nothing left to copy.
//
// Force spreading is owner-computes: after kernels 1–3, each worker
// walks every fiber node in global order and adds only into the box its
// cubes form (core.SpreadBox; cube2thread gives each thread a contiguous
// span per axis). No two workers write one node, no lock or private
// buffer is on the path, and every node receives its contributions in
// the sequential solver's order, so the engine is bitwise equal to the
// sequential reference at any thread count (DESIGN.md §13). It replaces
// the paper's scheme, in which each fiber's owner scatters its forces
// under one private lock per owner thread.
//
// Deviation from the published pseudocode, documented in DESIGN.md: the
// paper's Algorithm 4 shows three barriers per step (after loops 2, 3 and
// 5) but no barrier between the fiber loop (kernels 1–4) and the fluid
// loop (kernels 5–6). Here the fiber loop runs kernels 1–3 on owned
// fibers and the owners' spread heads the fluid loop, reading every
// fiber's elastic force, so a fourth barrier after loop 1 is required;
// this implementation inserts it — but only when it orders anything:
// fluid-only and single-thread runs skip it, restoring the paper's
// three-barrier schedule.
package cubesolver

import (
	"fmt"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cube"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/par"
)

// Config assembles a cube-based LBM-IB problem.
type Config struct {
	core.Config
	CubeSize int // k; fluid dimensions must be multiples of it (default 4)
	Threads  int
}

// Solver is the cube-centric parallel LBM-IB solver.
type Solver struct {
	core.Problem
	Fluid *cube.Layout
	Map   par.CubeMap // cube2thread

	stream       *core.Streamer
	team         *par.Team
	barrier      *par.Barrier
	timedBarrier par.TimedBarrier // wraps barrier; used only with a Probe attached
	step         int
	// swapped is the phase of the layout's distribution array between
	// steps (core.AABlock): false means natural. Every step flips it.
	swapped bool

	// Ownership, resolved once from the block distribution: owned[tid]
	// lists thread tid's cubes in cube-index order, box[tid] is the
	// lattice box they form, and fibers[tid] is its half-open range of
	// global fiber indices (fiber2thread maps contiguous spans, so a
	// range says it all).
	owned  [][]int
	box    []grid.Box
	fibers [][2]int
}

// NewSolver builds the solver, the thread mesh, and the data distribution.
// A Threads count the cube mesh cannot feed is clamped down (see
// effectiveThreads): every worker in the team owns at least one cube.
func NewSolver(cfg Config) (*Solver, error) {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.CubeSize == 0 {
		cfg.CubeSize = 4
	}
	layout, err := cube.NewLayout(cfg.NX, cfg.NY, cfg.NZ, cfg.CubeSize)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblem(cfg.Config)
	if err != nil {
		return nil, fmt.Errorf("cubesolver: %w", err)
	}
	threads := effectiveThreads(cfg.Threads, layout)
	s := &Solver{
		Problem: p,
		Fluid:   layout,
		Map:     par.CubeMap{CX: layout.CX, CY: layout.CY, CZ: layout.CZ, Mesh: par.NewMesh(threads)},
		stream:  core.NewStreamer(layout, p.StreamBC(cfg.NX, cfg.NY, cfg.NZ)),
		team:    par.NewTeam(threads),
		barrier: par.NewBarrier(threads),
		owned:   make([][]int, threads),
		box:     make([]grid.Box, threads),
		fibers:  make([][2]int, threads),
	}
	s.timedBarrier = par.TimedBarrier{B: s.barrier, Arrive: s.BarrierArrived}
	for c := 0; c < layout.NumCubes(); c++ {
		tid := s.Map.CubeToThread(layout.CubeCoord(c))
		s.owned[tid] = append(s.owned[tid], c)
	}
	for tid := range s.box {
		lo, hi := s.Map.Box(tid)
		for a := range lo {
			s.box[tid].Lo[a], s.box[tid].Hi[a] = lo[a]*layout.K, hi[a]*layout.K
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
	// Kernel 4 accumulates on top of the previous step's reset; seed the
	// initial body force the same way the update-velocity loop will
	// maintain it.
	core.SeedForce(layout.Macros(), s.BodyForce)
	return s, nil
}

// effectiveThreads clamps a requested worker count so that every worker
// owns at least one cube under the resulting P×Q×R mesh.
// Requesting more workers than cubes — or a mesh whose axis factors
// strand a mesh coordinate with an empty axis range — used to produce
// idle workers that still participated in every barrier, skewing the
// imbalance attribution toward the phantom threads. The largest count
// (≤ requested) whose distribution leaves no thread empty is used.
func effectiveThreads(requested int, layout *cube.Layout) int {
	t := requested
	if n := layout.NumCubes(); t > n {
		t = n
	}
	for ; t > 1; t-- {
		m := par.CubeMap{CX: layout.CX, CY: layout.CY, CZ: layout.CZ, Mesh: par.NewMesh(t)}
		empty := false
		for _, c := range m.Counts() {
			if c == 0 {
				empty = true
				break
			}
		}
		if !empty {
			break
		}
	}
	return t
}

// Close releases the worker team.
func (s *Solver) Close() { s.team.Close() }

// Threads returns the team width.
func (s *Solver) Threads() int { return s.team.Size() }

// StepCount returns the number of completed time steps.
func (s *Solver) StepCount() int { return s.step }

// Step advances one time step.
func (s *Solver) Step() { s.Run(1) }

// Run executes n time steps with the persistent worker team: every worker
// runs the whole loop structure of Algorithm 4, including the global
// barriers, until all n steps are done.
//
// The array's phase is captured once here, before the team forks, and
// each worker derives its step's phase from the step index alone (every
// step flips it); the solver's phase bit is written only after the team
// joins. So no worker shares a phase variable mid-run, which lets the
// end-of-step barrier fold away when nothing else spans it (see
// timeStep).
func (s *Solver) Run(n int) {
	if n <= 0 {
		return
	}
	first, p0 := s.step, s.swapped
	s.team.Run(func(tid int) {
		for st := first; st < first+n; st++ {
			s.timeStep(st, tid, p0 != ((st-first)&1 == 1))
		}
	})
	s.step += n
	s.swapped = p0 != (n&1 == 1)
}

// Live returns the layout with its distributions in the natural phase,
// canonicalizing the array in place if the last step left it swapped.
// Call it between steps only.
func (s *Solver) Live() *cube.Layout {
	if s.swapped {
		core.Canonicalize(s.stream, s.Fluid.Dist())
		s.swapped = false
	}
	return s.Fluid
}

// timeStep is Thread_entry_fn's per-step body (Algorithm 4). swapped is
// the array's phase at the start of the step, derived from the step
// index by Run.
func (s *Solver) timeStep(step, tid int, swapped bool) {
	phase := func(p core.Phase, fn func()) {
		s.Timed(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: p}, fn)
	}
	// 1st loop: kernels 1–3 on owned fibers.
	phase(core.PhaseFibersForce, func() { s.fiberForceLoop(tid) })
	// Elastic force → spread dependency (see package comment): every
	// owner's spread reads every fiber's force. The barrier folds away
	// when it orders nothing: without fibers nothing is spread, and a
	// single worker computes and spreads in program order. The condition
	// is thread-invariant, so every worker takes the same branch.
	if s.spreadBarrierNeeded() {
		s.waitBarrier(core.SiteAfterSpread, tid, step)
	}

	// 2nd loop: kernel 4 into the owned box, then kernels 5–6 on owned
	// cubes, streaming in place.
	phase(core.PhaseCollideStream, func() { s.collideStreamLoop(tid, step, swapped) })
	s.waitBarrier(core.SiteAfterStream, tid, step) // streaming → velocity-update dependency (paper's 1st barrier)

	// 3rd loop: kernel 7 on owned cubes, reading neighbour cubes' slots
	// at the phase the 2nd loop left.
	phase(core.PhaseUpdateVelocity, func() { s.updateVelocityLoop(tid, step, !swapped) })
	s.waitBarrier(core.SiteAfterVelocity, tid, step) // velocity → move-fibers dependency (paper's 2nd barrier)

	// 4th loop: kernel 8 on owned fibers.
	phase(core.PhaseMoveFibers, func() { s.moveFibersLoop(tid) })

	// 5th loop: kernel 9, retired: streaming in place leaves no second
	// array to copy back, so every thread's loop body is empty (each
	// thread still reports the phase to the probe).
	phase(core.PhaseCopy, func() {})
	// End-of-step barrier (paper's 3rd). It orders nothing in a
	// fluid-only run: the move-fibers and copy phases between the
	// after-velocity barrier and the next step's collide are then empty
	// of cross-thread effects — fibers' X writes are absent and the phase
	// is derived per worker — and the after-velocity barrier already
	// orders the 3rd loop's reads of neighbour cubes' slots before the
	// next step's 2nd loop writes them.
	// TestFoldedEndBarrierBitwiseEqualsSequential holds that fold
	// bitwise against the sequential reference at 1–8 threads under
	// -race (DESIGN.md §16). With fibers it is required (move writes
	// sheet X that the next step's bending stencil reads across fibers):
	// without it TestMatchesSequential and three more tests here fail.
	// The condition is thread-invariant, so every worker takes the same
	// branch.
	if s.spreadBarrierNeeded() {
		s.waitBarrier(core.SiteEndOfStep, tid, step)
	}
}

// spreadBarrierNeeded reports whether the after-spread barrier orders
// anything: it does only when more than one worker exists and fiber
// forces are actually spread. The end-of-step barrier shares the
// predicate (see timeStep). The result depends on no per-thread state,
// so every worker takes the same branch at the call sites.
func (s *Solver) spreadBarrierNeeded() bool {
	return s.team.Size() > 1 && fiber.TotalFibers(s.Sheets) > 0
}

// forOwnedFibers visits thread tid's fibers as (sheet, node-range)
// pieces in global fiber order — Algorithm 4's "for each fiber ... if
// fiber2thread(i) == tid".
func (s *Solver) forOwnedFibers(tid int, body func(sh *fiber.Sheet, nodeLo, nodeHi int)) {
	core.ForFibers(s.Sheets, s.fibers[tid][0], s.fibers[tid][1], body)
}

// forOwnedCubes visits every cube owned by tid, in cube-index order —
// Algorithm 4's "for each cube ... if cube2thread(I,J,K) == tid" — as
// loop nest p of the given step. With a probe attached each cube's visit
// is timed and reported as a block event.
func (s *Solver) forOwnedCubes(tid, step int, p core.Phase, fn func(c int)) {
	probe := s.Probe
	if probe == nil {
		for _, c := range s.owned[tid] {
			fn(c)
		}
		return
	}
	for _, c := range s.owned[tid] {
		t0 := time.Now()
		fn(c)
		probe.Emit(core.Event{Kind: core.BlockDone, Step: step, Tid: tid, Block: c, Phase: p, D: time.Since(t0)})
	}
}

// fiberForceLoop runs kernels 1–3 for the fibers owned by tid.
func (s *Solver) fiberForceLoop(tid int) {
	s.forOwnedFibers(tid, func(sh *fiber.Sheet, lo, hi int) {
		sh.ComputeBendingForce(lo, hi)
		sh.ComputeStretchingForce(lo, hi)
		sh.ComputeElasticForce(lo, hi)
	})
}

// collideStreamLoop runs kernel 4 into the box of cubes owned by tid —
// the owner is the only thread writing their forces — then kernels 5 and
// 6 over those cubes, fused per cube as in Algorithm 4.
func (s *Solver) collideStreamLoop(tid, step int, swapped bool) {
	core.SpreadBox(s.Fluid.Coupling, s.Sheets, s.box[tid])
	df := s.Fluid.Dist()
	s.forOwnedCubes(tid, step, core.PhaseCollideStream, func(c int) {
		core.AABlock(s.stream, df, c, s.Tau, swapped)
	})
}

// updateVelocityLoop runs kernel 7 over owned cubes at the array's phase
// swapped, resetting each node's force to the uniform body force in the
// same pass — the reset the paper's loop 5 performed, folded here so the
// retired copy loop leaves nothing behind.
func (s *Solver) updateVelocityLoop(tid, step int, swapped bool) {
	df := s.Fluid.Dist()
	s.forOwnedCubes(tid, step, core.PhaseUpdateVelocity, func(c int) {
		core.AAMomentsBlock(s.stream, df, c, swapped, &s.BodyForce)
	})
}

// moveFibersLoop runs kernel 8 over owned fibers. Fluid velocities are
// read-only in this phase.
func (s *Solver) moveFibersLoop(tid int) {
	s.forOwnedFibers(tid, func(sh *fiber.Sheet, lo, hi int) {
		core.MoveSheetNodes(s.Fluid, sh, lo, hi)
	})
}

// spreadOnly runs kernels 1–4 once on the worker team, through the same
// loops and barrier as a step, and stops before collision, leaving the
// spread force field in place. It is a test seam: the
// spreading-equivalence tests compare this force field with the
// sequential reference's.
func (s *Solver) spreadOnly() {
	s.team.Run(func(tid int) {
		s.fiberForceLoop(tid)
		if s.spreadBarrierNeeded() {
			s.waitBarrier(core.SiteAfterSpread, tid, s.step)
		}
		core.SpreadBox(s.Fluid.Coupling, s.Sheets, s.box[tid])
	})
}

// waitBarrier is the instrumented barrier: a plain Barrier.Wait without
// a probe (the zero-overhead default), a timed wait reported as a
// barrier arrival of the given step otherwise.
func (s *Solver) waitBarrier(site core.BarrierSite, tid, step int) {
	if s.Probe == nil {
		s.barrier.Wait()
		return
	}
	s.timedBarrier.Wait(step, int(site), tid)
}
