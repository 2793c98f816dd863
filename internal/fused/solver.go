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
// its values where the next step's reads expect them, and
// core.AAMomentsBlock then computes the node's moments from its
// post-streaming values and resets its force to the uniform body force,
// the same fold of kernel 7 the OpenMP-style solver uses. Why the
// in-place stream equals the sequential engine's push into a second
// array, slot by slot, is argued once, on core.AABlock. No arithmetic
// differs — the float64 fused engine is therefore bitwise identical to
// the OpenMP-style engine and to the sequential reference at any thread
// count.
//
// # The wavefront sweep
//
// A node's moments read its neighbors' slots, so they wait until every
// neighbor has collided. The sweep runs as one parallel region over
// x-slabs (one contiguous chunk per thread — the wavefront depends on it)
// with an explicit mid-sweep barrier:
//
//	one region (per thread, chunk [lo, hi)):
//	    region A:
//	        for x = lo .. hi−1:
//	            collide and stream plane x in place  // core.AABlock
//	            if x ≥ lo+2: moments of plane x−1    // cache-hot
//	    barrier                                      // all chunks streamed
//	    region B:
//	        moments of planes lo and hi−1            // need neighbor chunks' planes
//	flip the array's phase
//
// The moments of plane x−1 read planes x−2..x, all inside the thread's
// own chunk and still warm in cache; only the two chunk-edge planes wait
// for the barrier because they read a neighboring thread's planes.
// Region A is race-free because no two nodes share a slot (core.AABlock),
// and region B reads only slots no thread writes any more and writes only
// its own nodes' records.
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
// # Float32 storage
//
// With Config.Float32 the distributions are stored as one [][19]float32
// array the solver holds beside the grid's float64 one, which is then
// only Live's target. The sweep is one generic body over [][19]T, picked
// once per step, and so are the bodies it calls (core.AABlock over
// lattice.Collide, core.AAMomentsBlock over lattice.Moments). Arithmetic
// stays float64: values widen on load and round once on store, and the
// moments are computed from the rounded stored values, so the
// macroscopic state remains a pure function of the stored distributions.
// Storage rounding puts this mode on a relaxed differential contract
// (~1e-5 vs the float64 reference; see internal/crosscheck), but its
// trajectory is still the same bits at any thread count and its
// checkpoints round-trip bitwise, because widening float32 to float64 is
// exact. The grid keeps its
// records and its float64 array, and Live widens the float32 array into
// it, so the mode holds 152 + 56 + 76 = 284 B per node against 208.
//
// Fiber kernels 1–4 and 8 are inherited unchanged from the OpenMP-style
// solver (same team; each thread spreads into the x-slab it owns) and
// the fluid bodies are core's, so only the wavefront schedule is this
// package's own code.
package fused

import (
	"time"

	"lbmib/internal/core"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
	"lbmib/internal/omp"
	"lbmib/internal/par"
)

// Config configures the fused engine.
type Config struct {
	core.Config
	Threads int // parallel region width; 0 means 1, clamped to NX
	// Float32 stores the velocity distributions as float32 (arithmetic
	// stays float64) at the cost of a relaxed (~1e-5) differential
	// contract vs the float64 engines. The float32 array comes on top of
	// the grid's float64 one: 284 instead of 208 B per node.
	Float32 bool
}

// Solver is the fused engine. It embeds the OpenMP-style solver as its
// state container, worker team, and fiber-kernel implementation, and
// replaces the four per-kernel fluid passes with the single fused sweep.
type Solver struct {
	*omp.Solver

	// f32 holds the distributions in float32 storage; nil in float64
	// mode, where the grid's array holds them.
	f32 [][lattice.Q]float32
	// swapped is the phase of whichever array holds the distributions
	// (core.AABlock): false between steps means natural. It replaces the
	// embedded omp solver's, whose fluid kernels this engine never runs.
	swapped      bool
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
	s := &Solver{Solver: base, barrier: par.NewBarrier(base.Threads)}
	s.timedBarrier = par.TimedBarrier{B: s.barrier, Arrive: s.BarrierArrived}
	if cfg.Float32 {
		s.f32 = make([][lattice.Q]float32, base.Fluid.NumNodes())
		convert(s.f32, base.Fluid.Dist())
	}
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
	s.AdvanceStep()
}

// Run executes n time steps. It must be (re)declared here: the promoted
// omp.Solver.Run would dispatch to the embedded solver's per-kernel Step.
func (s *Solver) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// sweep is the fused collide+stream+update pass (see package doc) on
// whichever array holds the distributions.
func (s *Solver) sweep() {
	if s.f32 != nil {
		sweepOn(s, s.f32)
	} else {
		sweepOn(s, s.Fluid.Dist())
	}
	s.swapped = !s.swapped
}

// sweepOn runs the sweep over the distributions df as one parallel
// region: region A (collide and stream + interior moments), the explicit
// wavefront barrier, region B (chunk-edge moments), and — only with a
// probe attached — an end-of-sweep barrier measuring the wait the
// region's implicit join would otherwise hide. The probe is read once,
// before the region forks, so every worker executes the same barrier
// sequence.
func sweepOn[T lattice.Float](s *Solver, df [][lattice.Q]T) {
	st, tau, body, swapped := s.Stream, s.Tau, s.BodyForce, s.swapped
	probe, step := s.Probe, s.StepCount()
	s.ParallelFor(s.Fluid.NX, func(tid, lo, hi int) {
		var t0 time.Time
		if probe != nil {
			t0 = time.Now()
		}
		for x := lo; x < hi; x++ {
			core.AABlock(st, df, x, tau, swapped)
			if x >= lo+2 {
				core.AAMomentsBlock(st, df, x-1, !swapped, &body)
			}
		}
		if probe != nil {
			probe.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: core.PhaseCollideStream, D: time.Since(t0)})
		}
		s.waitBarrier(core.SiteAfterStream, tid, step)
		if probe != nil {
			t0 = time.Now()
		}
		core.AAMomentsBlock(st, df, lo, !swapped, &body)
		if hi-1 != lo {
			core.AAMomentsBlock(st, df, hi-1, !swapped, &body)
		}
		if probe != nil {
			probe.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: core.PhaseUpdateVelocity, D: time.Since(t0)})
			s.waitBarrier(core.SiteEndOfStep, tid, step)
		}
	})
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

// Live returns the fluid grid with its distributions in the natural
// phase, canonicalizing the array in place if a step left it swapped. In
// float32 mode the stored values are then widened — exactly — into the
// grid's array. Call it between steps only.
func (s *Solver) Live() *grid.Grid {
	g := s.Fluid
	if s.f32 == nil {
		if s.swapped {
			core.Canonicalize(s.Stream, g.Dist())
		}
	} else {
		if s.swapped {
			core.Canonicalize(s.Stream, s.f32)
		}
		convert(g.Dist(), s.f32)
	}
	s.swapped = false
	return g
}

// TotalMass returns the summed distribution mass of Live's grid. On
// float32 storage it canonicalizes and sums the stored values, widened,
// in node order — the bits Live().TotalMass() would return, without
// widening the grid.
func (s *Solver) TotalMass() float64 {
	if s.f32 == nil {
		return s.Live().TotalMass()
	}
	if s.swapped {
		core.Canonicalize(s.Stream, s.f32)
		s.swapped = false
	}
	return grid.TotalMass(s.f32)
}

// Digest fills d from the distributions in place, in whichever phase the
// last step left them; in float32 mode they are widened into the grid's
// array first, without canonicalizing.
func (s *Solver) Digest(d *grid.DigestGrid) error {
	g := s.Fluid
	if s.f32 != nil {
		convert(g.Dist(), s.f32)
	}
	return g.Digest(d)
}

// Loaded re-establishes the engine's invariants after the grid's array
// and records were overwritten from outside (a restored checkpoint, in
// the natural phase Live left): the float32 storage is refreshed from
// the grid and the force field is re-seeded with the body force.
func (s *Solver) Loaded() {
	g := s.Fluid
	if s.f32 != nil {
		convert(s.f32, g.Dist())
	}
	core.SeedForce(g.Macros(), s.BodyForce)
}

// CopyNodeDist overwrites node dst's 19 distribution slots with node
// src's, in whichever storage mode and phase is active — the
// perturbation seam the crosscheck fault-injection selftest drives
// through FaultHook.
func (s *Solver) CopyNodeDist(dst, src int) {
	if s.f32 != nil {
		s.f32[dst] = s.f32[src]
		return
	}
	df := s.Fluid.Dist()
	df[dst] = df[src]
}

// convert stores src into dst value by value: a widening copy out of
// float32 storage, which is exact, or a rounding one into it.
func convert[D, S lattice.Float](dst [][lattice.Q]D, src [][lattice.Q]S) {
	for i := range dst {
		for q, v := range &src[i] {
			dst[i][q] = D(v)
		}
	}
}
