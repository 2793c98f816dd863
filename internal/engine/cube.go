package engine

import (
	"lbmib/internal/core"
	"lbmib/internal/fiber"
)

// runCube executes n time steps under the cube schedule (Algorithm 4):
// the persistent team runs, on every worker, the whole loop structure of
// each step, including the global barriers, until all n steps are done.
//
// The array's phase is captured once here, before the team forks, and
// each worker derives its step's phase from the step index alone (every
// step flips it); the solver's phase bit is written only after the team
// joins. So no worker shares a phase variable mid-run, which lets the
// end-of-step barrier fold away when nothing else spans it (see
// cubeStep).
func (s *Solver) runCube(n int) {
	if n <= 0 {
		return
	}
	s.runFirst, s.runN, s.runPhase = s.StepCount(), n, s.Swapped()
	s.Team.Run(s.cubeRun)
	s.AdvanceStep(n)
	if n&1 == 1 {
		s.FlipPhase()
	}
	s.Support.Advance(n)
}

// cubeWorker is worker tid's part of the run runCube set up: every step
// of it, the phase of each derived from the step index.
func (s *Solver) cubeWorker(tid int) {
	first, n, p0 := s.runFirst, s.runN, s.runPhase
	for st := first; st < first+n; st++ {
		s.cubeStep(st, st-first, tid, p0 != ((st-first)&1 == 1))
	}
}

// cubeStep is Thread_entry_fn's per-step body (Algorithm 4). k counts the
// step from the start of the run, which selects its support sets
// (core.Support.Sets); swapped is the array's phase at the start of the
// step, derived from the step index by runCube.
//
// Deviation from the published pseudocode (DESIGN.md): Algorithm 4 shows
// three barriers per step (after loops 2, 3 and 5) but none between the
// fiber loop (kernels 1–4) and the fluid loop (kernels 5–6). Here the
// fiber loop runs kernels 1–3 on owned fibers and the owners' spread heads
// the fluid loop, reading every fiber's elastic force, so a fourth
// barrier after loop 1 is required — but only when it orders anything:
// fluid-only and single-worker runs skip it, restoring the paper's
// three-barrier schedule. A fluid-only step crosses one barrier
// (after_stream); a step with a structure crosses four on more than one
// worker. Every fold's condition is thread-invariant, so every worker
// takes the same branch.
func (s *Solver) cubeStep(step, k, tid int, swapped bool) {
	phase := func(p core.Phase, fn func()) {
		s.Timed(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: p}, fn)
	}
	// 1st loop: kernels 1–3 on owned fibers.
	phase(core.PhaseFibersForce, func() { s.fiberLoop(tid, fiberForces) })
	// Elastic force → spread dependency: every owner's spread reads every
	// fiber's force. Without fibers nothing is spread, and a single worker
	// computes and spreads in program order.
	if s.spreadBarrierNeeded() {
		s.waitBarrier(core.SiteAfterSpread, tid, step)
	}

	// 2nd loop: kernel 4 into the owned box, then kernels 5–6 on owned
	// cubes, streaming in place.
	phase(core.PhaseCollideStream, func() {
		s.spreadLoop(tid, k)
		s.collideLoop(tid, k, swapped)
	})
	s.waitBarrier(core.SiteAfterStream, tid, step) // streaming → velocity-update dependency (paper's 1st barrier)

	// 3rd loop: kernel 7 on the step's support, reading neighbour cubes'
	// slots at the phase the 2nd loop left. A fluid-only step has an empty
	// support and skips the loop, and must: its end-of-step barrier folds
	// away, so another worker may already be clearing this step's reach
	// set (core.Support.Take) while the scan would read it.
	phase(core.PhaseUpdateVelocity, func() {
		if s.hasFibers() {
			s.momentsLoop(tid, k, !swapped)
		}
	})
	// Velocity → move-fibers dependency (paper's 2nd barrier). It orders
	// nothing in a fluid-only run: the 3rd loop then reads and writes
	// nothing, and after_stream already orders this step's collide before
	// the next one's.
	if s.hasFibers() {
		s.waitBarrier(core.SiteAfterVelocity, tid, step)
	}

	// 4th loop: kernel 8 on owned fibers.
	phase(core.PhaseMoveFibers, func() { s.fiberLoop(tid, s.moveNodes) })

	// 5th loop: kernel 9, retired: streaming in place leaves no second
	// array to copy back, so every worker's loop body is empty (each
	// still reports the phase to the probe).
	phase(core.PhaseCopy, func() {})
	// End-of-step barrier (paper's 3rd). It orders nothing in a
	// fluid-only run: the move-fibers and copy phases are then empty of
	// cross-thread effects — fibers' X writes are absent and the phase is
	// derived per worker — and the after-velocity barrier already orders
	// the 3rd loop's reads of neighbour cubes' slots before the next
	// step's 2nd loop writes them.
	// TestFoldedEndBarrierBitwiseEqualsSequential holds that fold bitwise
	// against the sequential reference at 1–8 threads under -race
	// (DESIGN.md §16). With fibers it is required (move writes sheet X
	// that the next step's bending stencil reads across fibers): without
	// it TestMatchesSequential and three more tests here fail.
	if s.spreadBarrierNeeded() {
		s.waitBarrier(core.SiteEndOfStep, tid, step)
	}
}

// spreadBarrierNeeded reports whether the after-spread barrier orders
// anything: only when more than one worker exists and fiber forces are
// actually spread. The end-of-step barrier shares the predicate.
func (s *Solver) spreadBarrierNeeded() bool {
	return s.Threads() > 1 && s.hasFibers()
}

// hasFibers reports whether a structure with at least one fiber node is
// immersed: only then do kernels 4 and 8 touch the fluid.
func (s *Solver) hasFibers() bool { return fiber.TotalFibers(s.Sheets) > 0 }

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
