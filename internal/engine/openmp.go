package engine

import (
	"time"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
)

// stepOpenMP advances one time step under the OpenMP schedule: the nine
// kernels in Algorithm 1 order, each a parallel region of the per-worker
// loops that the team joins before the next kernel starts (bindOpenMP).
func (s *Solver) stepOpenMP() {
	step := s.StepCount()
	for i, kernel := range s.kernels {
		s.Timed(core.Event{Kind: core.KernelDone, Step: step, Kernel: core.Kernel(i + 1)}, kernel)
	}
	if FaultHook != nil {
		FaultHook(s)
	}
	s.AdvanceStep(1)
}

// bindOpenMP binds the OpenMP step's kernels, and the region bodies
// they hand the team, once, so a step allocates nothing. Kernel 5's
// region flips the phase bit and kernel 7's reads it, through s.phase,
// which the coordinator writes before the region starts; kernels 6 and
// 9 have no region (the stream is in place), and kernels 4 and 7 none
// without a structure.
func (s *Solver) bindOpenMP() {
	sheets := len(s.Sheets) > 0
	fibers := func(k core.Kernel, body func(*fiber.Sheet, int, int)) func() {
		loop := func(tid int) { s.fiberLoop(tid, body) }
		return func() { s.region(k, loop) }
	}
	spread := func(tid int) { s.spreadLoop(tid, 0) }
	collide := func(tid int) { s.collideLoop(tid, 0, s.phase) }
	moments := func(tid int) { s.momentsLoop(tid, 0, s.phase) }
	s.kernels = [core.NumKernels]func(){
		fibers(core.KComputeBendingForce, (*fiber.Sheet).ComputeBendingForce),
		fibers(core.KComputeStretchingForce, (*fiber.Sheet).ComputeStretchingForce),
		fibers(core.KComputeElasticForce, (*fiber.Sheet).ComputeElasticForce),
		func() {
			if sheets {
				s.region(core.KSpreadForce, spread)
			}
		},
		func() {
			s.phase = s.FlipPhase()
			s.region(core.KComputeCollision, collide)
		},
		func() {},
		func() {
			if sheets {
				s.phase = s.Swapped()
				s.region(core.KUpdateVelocity, moments)
			}
			s.Support.Advance(1)
		},
		fibers(core.KMoveFibers, s.moveNodes),
		func() {},
	}
}

// FaultHook, when non-nil, is invoked with the live solver after every
// completed OpenMP-schedule step, before the step counter advances. It is
// a test-only seam: the crosscheck harness (internal/crosscheck) installs
// an off-by-one perturbation here to prove its differential oracles
// detect an engine that drifts from the sequential reference. Production
// code never sets it.
var FaultHook func(*Solver)

// region runs body on every worker as kernel k's parallel region and
// joins. With a probe attached, each worker's busy time inside the region
// is taken (each writes only its own slot) and reported once after the
// join — the OmpP-style measurement behind the paper's Table II: the rest
// of the region's wall time a worker spent waiting at its implicit
// barrier.
func (s *Solver) region(k core.Kernel, body func(tid int)) {
	probe := s.Probe
	if probe == nil {
		s.Team.Run(body)
		return
	}
	clear(s.busy)
	s.body, s.kernel = body, k
	s.Team.Run(s.timed)
	s.body = nil
	probe.Emit(core.Event{Kind: core.RegionDone, Step: s.StepCount(), Kernel: k, Busy: s.busy})
}

// timedBody runs one worker's part of the current region under the clock.
// A worker that owns no fibers has an empty chunk of a fiber kernel's
// static schedule: it skips the body and reports no busy time.
func (s *Solver) timedBody(tid int) {
	if r := s.fibers[tid]; r[0] == r[1] && onFibers(s.kernel) {
		return
	}
	t0 := time.Now()
	s.body(tid)
	s.busy[tid] = time.Since(t0)
}

// onFibers reports whether kernel k is parallelized over fibers
// (Algorithm 3) rather than over planes.
func onFibers(k core.Kernel) bool {
	return k <= core.KComputeElasticForce || k == core.KMoveFibers
}
