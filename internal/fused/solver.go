// Package fused implements the memory-aware fused engine: collide,
// stream, boundary handling, macroscopic update, and the buffer swap —
// kernels 5, 6, 7, and 9 of Algorithm 1 — executed as a single
// pull-streaming sweep over the double-buffered slab grid, so each fluid
// node's distributions are read once and written once per time step
// instead of once per kernel. This follows the memory-aware single-node
// optimization of Fu & Song's 3D LBM work (PAPERS.md #1): on a
// memory-bound stencil, fusing passes is worth more than any further
// intra-kernel tuning.
//
// # Pull streaming
//
// The sequential reference and the OpenMP-style solver stream by pushing:
// node s writes its post-collision value g_q into neighbor (s+e_q)'s
// post-streaming buffer. The fused sweep inverts the data flow: node n
// gathers slot q from its upwind neighbor n−e_q. The two are value-wise
// identical, slot by slot:
//
//   - each post-streaming slot (n, q) has exactly one push writer — either
//     the upwind neighbor n−e_q (periodic wrap included), or n itself
//     reflecting direction opposite[q] off a bounce-back wall;
//   - core.StreamBC.Resolve(opposite[q], n) classifies exactly that
//     dichotomy from the pull side: it reports bounce (with the Ladd
//     moving-lid term computed from n's own pre-update density, just as
//     the push side computes it from the same node) or else returns the
//     wrapped coordinates of n+e_{opposite[q]} = n−e_q, the upwind source;
//   - the rest slot q = 0 is its own source.
//
// No arithmetic differs — the float64 fused engine is therefore bitwise
// identical to the OpenMP-style engine at any thread count, and matches
// the sequential reference under the same conditions that engine does
// (exactly, except for the parallel force-spreading accumulation order
// when multiple threads spread fiber forces).
//
// # The wavefront sweep
//
// Pulling requires every upwind neighbor's post-collision value, so
// collision and gathering cannot naively fuse. The sweep runs as one
// parallel region over x-slabs (one contiguous chunk per thread — the
// wavefront depends on it) with an explicit mid-sweep barrier:
//
//	one region (per thread, chunk [lo, hi)):
//	    region A:
//	        for x = lo .. hi−1:
//	            collide plane x in place on the present buffer
//	            if x ≥ lo+2: finalize plane x−1  // pull + moments, cache-hot
//	    barrier                                  // all chunks collided
//	    region B:
//	        finalize planes lo and hi−1          // need neighbor chunks' planes
//	swap buffer parity
//
// Finalizing plane x−1 reads collided planes x−2..x, all inside the
// thread's own chunk and still warm in cache; only the two chunk-edge
// planes wait for the barrier because they read a neighboring thread's
// planes. Region B is race-free: it reads only present-buffer values
// (which no longer change) and writes only the finalized node's own
// post-streaming slots and macroscopic fields. Finalization computes the
// node's moments from exactly the values it stored (the half-force Guo
// correction included) and resets the node's force to the uniform body
// force, the same fold of kernel 7 the OpenMP-style solver uses.
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
// With Config.Float32 the distributions are stored as float32, in two
// [][19]float32 arrays the solver holds beside the grid's float64 ones:
// array b stands for the grid's Dist(b), so the grid's parity is the
// only one. The sweep is one generic body over [][19]T, picked once per
// step, and so are the kernels it calls (core.CollideRange over
// lattice.Collide, and lattice.Moments). Arithmetic stays float64: values
// widen on load and round once on store, and the moments are computed
// from the rounded stored values, so the macroscopic state remains a pure
// function of the stored distributions. Storage rounding puts this mode
// on a relaxed differential contract (~1e-5 vs the float64 reference; see
// internal/crosscheck), but it is still run-to-run deterministic and its
// checkpoints round-trip bitwise, because widening float32 to float64 is
// exact. The grid keeps its records and both float64 arrays, and Live
// widens the present float32 array into the grid's present one, so the
// mode holds 2·152 + 56 + 2·76 = 512 B per node against 360.
//
// Fiber kernels 1–4 and 8 are inherited unchanged from the OpenMP-style
// solver (same team, same lock-free spreading), and the collision is
// core.CollideRange, so only the pull sweep is this package's own code.
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
	// contract vs the float64 engines. The float32 arrays come on top of
	// the grid's float64 ones: 512 instead of 360 B per node.
	Float32 bool
}

// Solver is the fused engine. It embeds the OpenMP-style solver as its
// state container, worker team, and fiber-kernel implementation, and
// replaces the four per-kernel fluid passes with the single fused sweep.
type Solver struct {
	*omp.Solver

	bc          core.StreamBC
	streamDelta [lattice.Q]int
	// f32[b] holds the distributions of the grid's Dist(b) in float32
	// storage; both are nil in float64 mode.
	f32          [2][][lattice.Q]float32
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
	s := &Solver{
		Solver:      base,
		bc:          base.StreamBC(cfg.NX, cfg.NY, cfg.NZ),
		streamDelta: base.Fluid.StreamDeltas(),
		barrier:     par.NewBarrier(base.Threads),
	}
	s.timedBarrier = par.TimedBarrier{B: s.barrier, Arrive: s.BarrierArrived}
	if cfg.Float32 {
		g := base.Fluid
		for b := range s.f32 {
			s.f32[b] = make([][lattice.Q]float32, g.NumNodes())
		}
		convert(s.f32[g.Cur()], g.Dist(g.Cur()))
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
// (kernels 5+6+7+9 in one pass), then kernel 8.
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

// sweep is the fused collide+stream+update+swap pass (see package doc)
// on whichever arrays hold the distributions.
func (s *Solver) sweep() {
	g := s.Fluid
	if s.f32[0] != nil {
		sweepOn(s, s.f32[g.Cur()], s.f32[1-g.Cur()])
	} else {
		sweepOn(s, g.Dist(g.Cur()), g.Dist(1-g.Cur()))
	}
	g.Swap()
}

// sweepOn runs the sweep from the present distributions src into the
// post-streaming ones dst as one parallel region: region A (collide +
// interior finalize), the explicit wavefront barrier, region B
// (chunk-edge finalize), and — only with a probe attached — an
// end-of-sweep barrier measuring the wait the region's implicit join
// would otherwise hide. The probe is read once, before the region forks,
// so every worker executes the same barrier sequence.
func sweepOn[T lattice.Float](s *Solver, src, dst [][lattice.Q]T) {
	g := s.Fluid
	plane, macro := g.NY*g.NZ, g.Macros()
	tau, body := s.Tau, s.BodyForce
	probe, step := s.Probe, s.StepCount()
	s.ParallelFor(g.NX, func(tid, lo, hi int) {
		var t0 time.Time
		if probe != nil {
			t0 = time.Now()
		}
		for x := lo; x < hi; x++ {
			core.CollideRange(src[x*plane:(x+1)*plane], macro[x*plane:(x+1)*plane], tau)
			if x >= lo+2 {
				finalizePlane(s, src, dst, x-1, body)
			}
		}
		if probe != nil {
			probe.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: core.PhaseCollideStream, D: time.Since(t0)})
		}
		s.waitBarrier(core.SiteAfterStream, tid, step)
		if probe != nil {
			t0 = time.Now()
		}
		finalizePlane(s, src, dst, lo, body)
		if hi-1 != lo {
			finalizePlane(s, src, dst, hi-1, body)
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

// finalizePlane completes every node of x-plane x: it gathers the 19
// post-collision values from the upwind neighbors in src (pull streaming
// with boundary resolution) into the post-streaming array dst, recomputes
// the node's density and velocity from exactly those stored values, and
// resets its force to the uniform body force. Pulled values move without
// re-rounding; a reflected bounce-back value is computed in float64 and
// rounded once on store. Every collided value it reads is stable by
// construction of the wavefront (see package doc), and every write lands
// in the finalized node itself.
func finalizePlane[T lattice.Float](s *Solver, src, dst [][lattice.Q]T, x int, body [3]float64) {
	g := s.Fluid
	macro := g.Macros()
	interiorX := x > 0 && x < g.NX-1
	for y := 0; y < g.NY; y++ {
		interiorY := interiorX && y > 0 && y < g.NY-1
		base := (x*g.NY + y) * g.NZ
		for z := 0; z < g.NZ; z++ {
			idx := base + z
			m, nb := &macro[idx], &dst[idx]
			if interiorY && z > 0 && z < g.NZ-1 {
				for q := 0; q < lattice.Q; q++ {
					nb[q] = src[idx-s.streamDelta[q]][q]
				}
			} else {
				cb := &src[idx]
				for q := 0; q < lattice.Q; q++ {
					oq := lattice.Opposite[q]
					tx, ty, tz, refl, bounce := s.bc.Resolve(oq, x, y, z, float64(cb[oq]), m.Rho)
					if bounce {
						nb[q] = T(refl)
					} else {
						nb[q] = src[g.Idx(tx, ty, tz)][q]
					}
				}
			}
			m.Rho = lattice.Moments(nb, m.Force, &m.Vel)
			m.Force = body
		}
	}
}

// Live returns the fluid grid at its current parity with the present
// distributions readable at Dist(Cur()). In float32 mode the stored
// values are widened — exactly — into the grid's present array first.
func (s *Solver) Live() *grid.Grid {
	g := s.Fluid
	if f := s.f32[g.Cur()]; f != nil {
		convert(g.Dist(g.Cur()), f)
	}
	return g
}

// TotalMass returns the summed present distribution mass. On float32
// storage it sums the stored values, widened, in node order — the bits
// Live().TotalMass() would return, without widening the grid.
func (s *Solver) TotalMass() float64 {
	g := s.Fluid
	if f := s.f32[g.Cur()]; f != nil {
		return grid.TotalMass(f)
	}
	return g.TotalMass()
}

// Loaded re-establishes the engine's invariants after the grid's present
// array and records were overwritten from outside (a restored
// checkpoint): the float32 storage is refreshed from the present array
// and the force field is re-seeded with the body force.
func (s *Solver) Loaded() {
	g := s.Fluid
	if f := s.f32[g.Cur()]; f != nil {
		convert(f, g.Dist(g.Cur()))
	}
	core.SeedForce(g.Macros(), s.BodyForce)
}

// CopyNodeDist overwrites node dst's present distribution with node
// src's, in whichever storage mode is active — the perturbation seam the
// crosscheck fault-injection selftest drives through FaultHook.
func (s *Solver) CopyNodeDist(dst, src int) {
	g := s.Fluid
	if f := s.f32[g.Cur()]; f != nil {
		f[dst] = f[src]
		return
	}
	df := g.Dist(g.Cur())
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
