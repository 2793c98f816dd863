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
// sites.
//
// Cross-thread force spreading is lock-free: each worker accumulates
// contributions to cubes it does not own into a private, sparse per-cube
// buffer (contributions to its own cubes go straight to the grid), and
// after the spread barrier every owner folds the workers' buffers into
// its own cubes in ascending thread order — a deterministic
// owner-partitioned reduction, so results are reproducible run-to-run at
// a fixed thread count (core.SpreadAccum; DESIGN.md §13). It replaces
// the paper's scheme of one private lock per owner thread.
//
// Deviation from the published pseudocode, documented in DESIGN.md: the
// paper's Algorithm 4 shows three barriers per step (after loops 2, 3 and
// 5) but no barrier between the fiber loop (kernels 1–4) and the fluid
// loop (kernels 5–6). Kernel 5 reads the elastic force that loop 1 spreads
// toward cubes owned by other threads, so a fourth barrier after loop 1 is
// required for a correct execution; this implementation inserts it — but
// only when it orders anything: fluid-only and single-thread runs skip it,
// restoring the paper's three-barrier schedule.
package cubesolver

import (
	"fmt"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cube"
	"lbmib/internal/fiber"
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
	timedBarrier par.TimedBarrier    // wraps barrier; used only with a Probe attached
	accums       []*core.SpreadAccum // per-thread spread buffers, one block per cube
	step         int

	// Ownership, resolved once from the block distribution: owned[tid]
	// lists thread tid's cubes in cube-index order, and fibers[tid] is
	// its half-open range of global fiber indices (fiber2thread maps
	// contiguous spans, so a range says it all).
	owned  [][]int
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
		fibers:  make([][2]int, threads),
	}
	s.timedBarrier = par.TimedBarrier{B: s.barrier, Arrive: s.BarrierArrived}
	owner := make([]int, layout.NumCubes())
	for c := range owner {
		owner[c] = s.Map.CubeToThread(layout.CubeCoord(c))
		s.owned[owner[c]] = append(s.owned[owner[c]], c)
	}
	total := fiber.TotalFibers(s.Sheets)
	for g := 0; g < total; g++ {
		r := &s.fibers[par.FiberToThread(g, total, threads)]
		if r[1] == 0 {
			r[0] = g
		}
		r[1] = g + 1
	}
	s.accums = core.NewSpreadAccums(layout, threads, owner)
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
// Buffer parity is captured once here, before the team forks, and each
// worker derives its step's parity from the step index alone (the swap
// flips it exactly once per step). No worker reads the layout's shared
// parity bit mid-run, which is what makes thread 0's Swap in the 5th
// loop conflict-free and lets the end-of-step barrier fold away when
// nothing else spans it (see timeStep).
func (s *Solver) Run(n int) {
	if n <= 0 {
		return
	}
	first := s.step
	p0 := s.Fluid.Cur()
	s.team.Run(func(tid int) {
		for st := first; st < first+n; st++ {
			s.timeStep(st, tid, p0^((st-first)&1))
		}
	})
	s.step += n
}

// timeStep is Thread_entry_fn's per-step body (Algorithm 4). cur is the
// step's distribution-buffer parity, derived from the step index by Run
// so that workers never load the shared parity bit between barriers.
func (s *Solver) timeStep(step, tid, cur int) {
	phase := func(p core.Phase, fn func()) {
		s.Timed(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: p}, fn)
	}
	// gen stamps this step's spread accumulation; generations are never
	// reused, which is what lets the lock-free buffers skip zeroing.
	gen := step + 1

	// 1st loop: kernels 1–4 on owned fibers.
	phase(core.PhaseFibersForce, func() { s.fiberForceLoop(tid, gen) })
	// Spread → collision dependency (see package comment). The barrier
	// folds away when it orders nothing: without fibers no forces are
	// spread, and a single worker spreads and collides in program order.
	// The condition is thread-invariant, so every worker takes the same
	// branch.
	if s.spreadBarrierNeeded() {
		s.waitBarrier(core.SiteAfterSpread, tid, step)
	}

	// 2nd loop: kernels 5–6 on owned cubes (each first folds the workers'
	// spread buffers into the cube).
	phase(core.PhaseCollideStream, func() { s.collideStreamLoop(tid, step, gen, cur) })
	s.waitBarrier(core.SiteAfterStream, tid, step) // streaming → velocity-update dependency (paper's 1st barrier)

	// 3rd loop: kernel 7 on owned cubes.
	phase(core.PhaseUpdateVelocity, func() { s.updateVelocityLoop(tid, step, cur) })
	s.waitBarrier(core.SiteAfterVelocity, tid, step) // velocity → move-fibers dependency (paper's 2nd barrier)

	// 4th loop: kernel 8 on owned fibers.
	phase(core.PhaseMoveFibers, func() { s.moveFibersLoop(tid) })

	// 5th loop: kernel 9, retired: thread 0 flips the layout's buffer
	// parity in O(1) and everyone else's loop body is empty (each thread
	// still reports the phase to the probe). The after-velocity
	// barrier orders the flip after every thread's kernel-7 reads;
	// workers derive their own parity from the step index, so the flip
	// itself is unread until the run joins.
	phase(core.PhaseCopy, func() { s.copyLoop(tid) })
	// End-of-step barrier (paper's 3rd). It orders nothing in a
	// fluid-only run: the move-fibers and copy phases between the
	// after-velocity barrier and the next step's collide are then empty
	// of cross-thread effects — fibers' X writes are absent, parity is
	// derived per worker, and thread 0's Swap is unread until the team
	// joins. TestFoldedEndBarrierBitwiseEqualsSequential holds that fold
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

// fiberForceLoop runs kernels 1–4 for the fibers owned by tid. Spreading
// goes through the worker's private accumulation buffer; gen stamps this
// step's buffers.
func (s *Solver) fiberForceLoop(tid, gen int) {
	acc := s.accums[tid]
	acc.Begin(gen)
	s.forOwnedFibers(tid, func(sh *fiber.Sheet, lo, hi int) {
		sh.ComputeBendingForce(lo, hi)
		sh.ComputeStretchingForce(lo, hi)
		sh.ComputeElasticForce(lo, hi)
		core.SpreadSheetNodes(acc, sh, lo, hi)
	})
}

// collideStreamLoop runs kernels 5 and 6 over the cubes owned by tid,
// fused per cube as in Algorithm 4. Each owned cube's spread reduction
// runs immediately before its collision — the owner is the only thread
// touching the cube here, so the reduction needs no synchronization
// beyond the spread barrier already passed, and the cube's nodes are hot
// in cache for the collision that follows.
func (s *Solver) collideStreamLoop(tid, step, gen, cur int) {
	reduce := fiber.TotalFibers(s.Sheets) > 0
	df, macro := s.Fluid.Dist(cur), s.Fluid.Macros()
	s.forOwnedCubes(tid, step, core.PhaseCollideStream, func(c int) {
		lo, hi := s.Fluid.CubeRange(c)
		if reduce {
			core.ReduceSpread(s.accums, macro[lo:hi], c, gen)
		}
		core.CollideRange(df[lo:hi], macro[lo:hi], s.Tau)
		s.stream.Block(c, cur)
	})
}

// updateVelocityLoop runs kernel 7 over owned cubes, resetting each
// node's force to the uniform body force in the same pass — the reset
// the paper's loop 5 performed, folded here so the retired copy loop
// leaves nothing behind.
func (s *Solver) updateVelocityLoop(tid, step, cur int) {
	df, macro := s.Fluid.Dist(1-cur), s.Fluid.Macros()
	s.forOwnedCubes(tid, step, core.PhaseUpdateVelocity, func(c int) {
		lo, hi := s.Fluid.CubeRange(c)
		core.UpdateRange(df[lo:hi], macro[lo:hi], &s.BodyForce)
	})
}

// moveFibersLoop runs kernel 8 over owned fibers. Fluid velocities are
// read-only in this phase.
func (s *Solver) moveFibersLoop(tid int) {
	s.forOwnedFibers(tid, func(sh *fiber.Sheet, lo, hi int) {
		core.MoveSheetNodes(s.Fluid, sh, lo, hi)
	})
}

// copyLoop is the 5th loop. Kernel 9 is retired: only thread 0 does
// anything, flipping the layout's buffer parity in O(1); the force reset
// that used to ride along lives in updateVelocityLoop.
func (s *Solver) copyLoop(tid int) {
	if tid == 0 {
		s.Fluid.Swap()
	}
}

// spreadOnly runs the fiber-force loop (kernels 1–4) once on the worker
// team — including the owner-partitioned reduction — and stops before
// collision, leaving the accumulated force field in place. It is a test
// seam: the spreading-equivalence tests compare this force field with
// the sequential reference's.
func (s *Solver) spreadOnly() {
	gen := s.step + 1
	s.team.Run(func(tid int) {
		s.fiberForceLoop(tid, gen)
		if s.spreadBarrierNeeded() {
			s.waitBarrier(core.SiteAfterSpread, tid, s.step)
		}
		if fiber.TotalFibers(s.Sheets) > 0 {
			for _, c := range s.owned[tid] {
				lo, hi := s.Fluid.CubeRange(c)
				core.ReduceSpread(s.accums, s.Fluid.Macros()[lo:hi], c, gen)
			}
		}
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
