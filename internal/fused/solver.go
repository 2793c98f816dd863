// Package fused implements the memory-aware fused engine: collide,
// stream, boundary handling and the macroscopic update — kernels 5, 6
// and 7 of Algorithm 1 — executed as a single sweep over the slab grid's
// one distribution array, so each fluid node's distributions are read
// once and written once per time step instead of once per kernel. This
// follows the memory-aware single-node optimization of Fu & Song's 3D
// LBM work (PAPERS.md #1): on a memory-bound stencil, fusing passes is
// worth more than any further intra-kernel tuning.
//
// # Streaming in place
//
// The array is streamed in place by the AA pattern, through the bodies
// every in-place engine shares: core.AABlock collides a node and stores
// its values where the next step's reads expect them. On the planes the
// structure's stencils reach (core.Support), core.AAMomentsBlock then
// computes each node's moments from its post-streaming values and resets
// its force to the uniform body force, the same fold of kernel 7 the
// OpenMP-style solver uses; every other plane's moments are folded into
// its next collide. Why the in-place stream equals the sequential
// engine's push into a second array, slot by slot, is argued once, on
// core.AABlock, and why the folded moments are the moments pass's bits,
// on core.Support. No arithmetic differs — the fused engine is therefore
// bitwise identical to the OpenMP-style engine and to the
// sequential reference at any thread count.
//
// # The wavefront sweep
//
// A node's moments read its neighbors' slots, so they wait until every
// neighbor has collided. The sweep runs as one parallel region over
// x-slabs (one contiguous chunk per thread — the wavefront depends on it),
// with an explicit mid-sweep barrier when a structure is immersed:
//
//	one region (per thread, chunk [lo, hi)):
//	    region A:
//	        for x = lo .. hi−1:
//	            collide and stream plane x in place  // core.AABlock
//	            if x ≥ lo+2 and x−1 in the support:
//	                moments of plane x−1             // cache-hot
//	    if a structure is immersed:
//	        barrier                                  // all chunks streamed
//	        region B:
//	            moments of planes lo and hi−1        // need neighbor chunks' planes
//	              that are in the support
//	flip the array's phase
//
// The moments of plane x−1 read planes x−2..x, all inside the thread's
// own chunk and still warm in cache; only the two chunk-edge planes wait
// for the barrier because they read a neighboring thread's planes.
// Region A is race-free because no two nodes share a slot (core.AABlock),
// and region B reads only slots no thread writes any more and writes only
// its own nodes' records. A fluid-only sweep has an empty support: it is
// region A's collide and stream alone, one pass over the fluid, and the
// region's join is its only barrier.
//
// The mid-sweep barrier is the engine's own par.Barrier (the team's
// implicit region join used to separate A and B when they were two
// dispatches; the explicit barrier keeps the identical ordering with one
// dispatch fewer) and is instrumentable: with a probe attached, it and
// an extra end-of-sweep barrier report per-thread arrivals under the
// cube engine's site vocabulary (core.SiteAfterStream and
// core.SiteEndOfStep), which is what lets the load-imbalance bench and
// the critical-path profiler cover this engine.
//
// # Events
//
// The step reports through core.Problem.Probe in the phase vocabulary:
// the fiber-force kernels as PhaseFibersForce and kernel 8 as
// PhaseMoveFibers (both from the coordinator, as thread 0), region A of
// the sweep as PhaseCollideStream and region B as PhaseUpdateVelocity
// (both per thread), plus the two barrier sites above. It emits no
// kernel or region events: the embedded loop-parallel solver times
// regions only inside its own Step, which this engine never runs.
//
// Fiber kernels 1–4 and 8 are inherited unchanged from the OpenMP-style
// solver (same team; each thread spreads into the x-slab it owns) and
// the fluid bodies are core's, so only the wavefront schedule is this
// package's own code, and its only state is the sweep's barrier. The
// rest is the embedded solver's core.InPlace, whose phase bit the sweep
// flips (core.InPlace.FlipPhase), so its Live, Canonical, Refresh and
// Digest serve this engine unchanged.
package fused

import (
	"time"

	"lbmib/internal/core"
	"lbmib/internal/omp"
	"lbmib/internal/par"
)

// Config configures the fused engine.
type Config struct {
	core.Config
	Threads int // parallel region width; 0 means 1, clamped to NX
}

// Solver is the fused engine. It embeds the OpenMP-style solver as its
// state container, worker team, and fiber-kernel implementation, and
// replaces the four per-kernel fluid passes with the single fused sweep.
type Solver struct {
	*omp.Solver

	barrier      *par.Barrier
	timedBarrier par.TimedBarrier
}

// NewSolver builds the fused engine and starts its worker team. Threads
// is clamped to NX like the embedded solver's.
func NewSolver(cfg Config) (*Solver, error) {
	base, err := omp.NewSolver(omp.Config{
		Config:  cfg.Config,
		Threads: cfg.Threads,
	})
	if err != nil {
		return nil, err
	}
	s := &Solver{Solver: base, barrier: par.NewBarrier(base.Threads())}
	s.timedBarrier = par.TimedBarrier{B: s.barrier, Arrive: s.BarrierArrived}
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

// FaultHook, when non-nil, is invoked with the live solver after every
// completed fused step, before the step counter advances. It is a
// test-only seam mirroring omp.FaultHook: the crosscheck harness
// installs a streaming perturbation here to prove its differential
// oracles catch a fused sweep that drifts from the sequential reference.
// Production code never sets it.
var FaultHook func(*Solver)

// Step advances one time step: fiber kernels 1–4, the fused fluid sweep
// (kernels 5+6+7 in one pass), then kernel 8.
func (s *Solver) Step() {
	run := func(p core.Phase, fn func()) {
		s.Timed(core.Event{Kind: core.PhaseDone, Step: s.StepCount(), Phase: p}, fn)
	}
	run(core.PhaseFibersForce, func() {
		s.ComputeBendingForce()
		s.ComputeStretchingForce()
		s.ComputeElasticForce()
		s.SpreadForce()
	})
	s.sweep()
	run(core.PhaseMoveFibers, s.MoveFibers)
	if FaultHook != nil {
		FaultHook(s)
	}
	s.AdvanceStep(1)
}

// Run executes n time steps. It must be (re)declared here: the promoted
// omp.Solver.Run would dispatch to the embedded solver's per-kernel Step.
func (s *Solver) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// sweep is the fused collide+stream+update pass (see package doc), run
// as one parallel region: region A (collide and stream + interior
// moments), and, with a structure immersed, the explicit wavefront
// barrier and region B (chunk-edge moments); then — only with a probe
// attached — an end-of-sweep barrier measuring the wait the region's
// implicit join would otherwise hide. The probe and the structure are
// read once, before the region forks, so every worker executes the same
// barrier sequence.
func (s *Solver) sweep() {
	st, df, tau, body, swapped, sup := s.Stream, s.Fluid.Dist(), s.Tau, &s.BodyForce, s.FlipPhase(), s.Support
	probe, step := s.Probe, s.StepCount()
	_, reach := sup.Sets(0)
	sheets := len(s.Sheets) > 0
	s.ParallelFor(s.Fluid.NX, func(tid, lo, hi int) {
		var t0 time.Time
		if probe != nil {
			t0 = time.Now()
		}
		for x := lo; x < hi; x++ {
			fold, force := sup.Take(0, x, body)
			core.AABlock(st, df, x, tau, swapped, fold, force)
			if x >= lo+2 && reach[x-1] {
				core.AAMomentsBlock(st, df, x-1, !swapped, body)
			}
		}
		if probe != nil {
			probe.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: core.PhaseCollideStream, D: time.Since(t0)})
		}
		if sheets {
			s.waitBarrier(core.SiteAfterStream, tid, step)
		}
		if probe != nil {
			t0 = time.Now()
		}
		if reach[lo] {
			core.AAMomentsBlock(st, df, lo, !swapped, body)
		}
		if hi-1 != lo && reach[hi-1] {
			core.AAMomentsBlock(st, df, hi-1, !swapped, body)
		}
		if probe != nil {
			probe.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: core.PhaseUpdateVelocity, D: time.Since(t0)})
			s.waitBarrier(core.SiteEndOfStep, tid, step)
		}
	})
	sup.Advance(1)
}

// waitBarrier is the sweep's instrumented barrier: a plain Barrier.Wait
// without a probe, a timed wait reported as a barrier arrival otherwise
// — the same contract as the cube solver's.
func (s *Solver) waitBarrier(site core.BarrierSite, tid, step int) {
	if s.Probe == nil {
		s.barrier.Wait()
		return
	}
	s.timedBarrier.Wait(step, int(site), tid)
}
