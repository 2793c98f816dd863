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
// With Config.Float32 the distributions live in a grid.Dist32 — two
// float32 buffers replacing the grid's two float64 distribution arrays
// on the hot path, halving the distribution traffic that dominates the
// sweep.
// Arithmetic stays float64: values widen on load, round once on store,
// and the moments are computed from the rounded stored values so the
// macroscopic state remains a pure function of the stored distributions.
// Storage rounding puts this mode on a relaxed differential contract
// (~1e-5 vs the float64 reference; see internal/crosscheck), but it is
// still run-to-run deterministic and its checkpoints round-trip bitwise,
// because widening float32 to float64 is exact. The embedded grid keeps
// carrying the records; its own float64 distribution arrays go stale
// between Materialize calls, which widen into the present one only (the
// footprint stays, the traffic goes).
//
// Fiber kernels 1–4 and 8 are inherited unchanged from the OpenMP-style
// solver (same team, same lock-free spreading), and the collision is
// core.CollideRange on float64 storage and the node kernel it calls,
// lattice.Collide, on float32 storage, so only the pull sweep and the
// float32 load/store path are this package's own code.
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
	// stays float64), halving the memory traffic of the fused sweep at
	// the cost of a relaxed (~1e-5) differential contract vs the float64
	// engines.
	Float32 bool
}

// Solver is the fused engine. It embeds the OpenMP-style solver as its
// state container, worker team, and fiber-kernel implementation, and
// replaces the four per-kernel fluid passes with the single fused sweep.
type Solver struct {
	*omp.Solver

	// Float32 reports whether distributions are stored in float32.
	Float32 bool

	bc           core.StreamBC
	streamDelta  [lattice.Q]int
	d32          *grid.Dist32 // non-nil iff Float32
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
		Float32:     cfg.Float32,
		bc:          base.StreamBC(cfg.NX, cfg.NY, cfg.NZ),
		streamDelta: base.Fluid.StreamDeltas(),
		barrier:     par.NewBarrier(base.Threads),
	}
	s.timedBarrier = par.TimedBarrier{B: s.barrier, Arrive: s.BarrierArrived}
	if cfg.Float32 {
		s.d32 = grid.NewDist32(cfg.NX, cfg.NY, cfg.NZ)
		if err := s.d32.FromGrid(s.Fluid); err != nil {
			return nil, err
		}
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

// sweep is the fused collide+stream+update+swap pass (see package doc).
// It is one parallel region: region A (collide + interior finalize),
// the explicit wavefront barrier, region B (chunk-edge finalize), and —
// only with a probe attached — an end-of-sweep barrier measuring the
// wait the region's implicit join would otherwise hide. The probe is
// read once, before the region forks, so every worker executes the same
// barrier sequence.
func (s *Solver) sweep() {
	g := s.Fluid
	var cur int
	if s.Float32 {
		cur = s.d32.Cur()
	} else {
		cur = g.Cur()
	}
	next := 1 - cur
	tau, body := s.Tau, s.BodyForce
	probe, step := s.Probe, s.StepCount()
	s.ParallelFor(g.NX, func(tid, lo, hi int) {
		var t0 time.Time
		if probe != nil {
			t0 = time.Now()
		}
		for x := lo; x < hi; x++ {
			s.collidePlane(x, cur, tau)
			if x >= lo+2 {
				s.finalizePlane(x-1, cur, next, body)
			}
		}
		if probe != nil {
			probe.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: core.PhaseCollideStream, D: time.Since(t0)})
		}
		s.waitBarrier(core.SiteAfterStream, tid, step)
		if probe != nil {
			t0 = time.Now()
		}
		s.finalizePlane(lo, cur, next, body)
		if hi-1 != lo {
			s.finalizePlane(hi-1, cur, next, body)
		}
		if probe != nil {
			probe.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: core.PhaseUpdateVelocity, D: time.Since(t0)})
			s.waitBarrier(core.SiteEndOfStep, tid, step)
		}
	})
	if s.Float32 {
		s.d32.Swap()
	} else {
		g.Swap()
	}
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

// collidePlane applies the BGK+Guo collision in place to every node of
// x-plane x on the present buffer. On float32 storage a node's 19 values
// widen into a float64 scratch array, go through the same kernel
// core.CollideRange calls, and round once on store.
func (s *Solver) collidePlane(x, cur int, tau float64) {
	g := s.Fluid
	lo, hi := x*g.NY*g.NZ, (x+1)*g.NY*g.NZ
	m := g.Macros()[lo:hi]
	if s.d32 == nil {
		core.CollideRange(g.Dist(cur)[lo:hi], m, tau)
		return
	}
	buf := s.d32.Buf(cur)[lo*lattice.Q : hi*lattice.Q]
	var tmp [lattice.Q]float64
	for i := range m {
		n := &m[i]
		df := (*[lattice.Q]float32)(buf[i*lattice.Q:])
		for q, v := range df {
			tmp[q] = float64(v)
		}
		lattice.Collide(&tmp, n.Rho, n.Vel, n.Force, tau)
		for q := range df {
			df[q] = float32(tmp[q])
		}
	}
}

// finalizePlane completes every node of x-plane x: it gathers the 19
// post-collision values from the upwind neighbors (pull streaming with
// boundary resolution) into the post-streaming buffer, recomputes the
// node's density and velocity from exactly those values, and resets its
// force to the uniform body force. Every collided value it reads is
// stable by construction of the wavefront (see package doc), and every
// write lands in the finalized node itself.
func (s *Solver) finalizePlane(x, cur, next int, body [3]float64) {
	if s.d32 != nil {
		s.finalizePlane32(x, cur, next, body)
		return
	}
	g := s.Fluid
	src, dst, macro := g.Dist(cur), g.Dist(next), g.Macros()
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
					tx, ty, tz, refl, bounce := s.bc.Resolve(oq, x, y, z, cb[oq], m.Rho)
					if bounce {
						nb[q] = refl
					} else {
						nb[q] = src[g.Idx(tx, ty, tz)][q]
					}
				}
			}
			closeNode(m, nb, body)
		}
	}
}

// closeNode is the tail both finalizers share once a node's 19 values are
// gathered: kernel 7 on exactly those values, then the folded force reset.
func closeNode(m *grid.Macro, gathered *[lattice.Q]float64, body [3]float64) {
	m.Rho = lattice.Moments(gathered, m.Force, &m.Vel)
	m.Force = body
}

// finalizePlane32 is finalizePlane on the float32 storage. Pulled values
// move between the buffers without re-rounding; the reflected bounce-back
// value is computed in float64 and rounded once on store. The moments
// read the rounded stored values, keeping the macroscopic state a pure
// function of the float32 state.
func (s *Solver) finalizePlane32(x, cur, next int, body [3]float64) {
	g := s.Fluid
	cb, nb, macro := s.d32.Buf(cur), s.d32.Buf(next), g.Macros()
	interiorX := x > 0 && x < g.NX-1
	var tmp [lattice.Q]float64
	for y := 0; y < g.NY; y++ {
		interiorY := interiorX && y > 0 && y < g.NY-1
		planeBase := (x*g.NY + y) * g.NZ
		for z := 0; z < g.NZ; z++ {
			idx := planeBase + z
			m := &macro[idx]
			base := idx * lattice.Q
			if interiorY && z > 0 && z < g.NZ-1 {
				for q := 0; q < lattice.Q; q++ {
					v := cb[(idx-s.streamDelta[q])*lattice.Q+q]
					nb[base+q] = v
					tmp[q] = float64(v)
				}
			} else {
				for q := 0; q < lattice.Q; q++ {
					oq := lattice.Opposite[q]
					tx, ty, tz, refl, bounce := s.bc.Resolve(oq, x, y, z, float64(cb[base+oq]), m.Rho)
					if bounce {
						r := float32(refl)
						nb[base+q] = r
						tmp[q] = float64(r)
					} else {
						v := cb[g.Idx(tx, ty, tz)*lattice.Q+q]
						nb[base+q] = v
						tmp[q] = float64(v)
					}
				}
			}
			closeNode(m, &tmp, body)
		}
	}
}

// Live returns the fluid grid at its current parity with the present
// distributions readable at Dist(Cur()). In float32 mode the stored
// values are widened — exactly — into the grid's present buffer first.
func (s *Solver) Live() *grid.Grid {
	if s.d32 != nil {
		// Shapes match by construction; the error path is unreachable.
		if err := s.d32.Materialize(s.Fluid); err != nil {
			panic(err)
		}
	}
	return s.Fluid
}

// TotalMass returns the summed present-buffer distribution mass. On
// float32 storage it sums the stored values, widened, in node order — the
// bits Live().TotalMass() would return, without widening the grid.
func (s *Solver) TotalMass() float64 {
	if s.d32 != nil {
		return s.d32.TotalMass()
	}
	return s.Fluid.TotalMass()
}

// Loaded re-establishes the engine's invariants after the grid's present
// buffer and records were overwritten from outside (a restored
// checkpoint): the float32 storage is refreshed from the present buffer
// and the force field is re-seeded with the body force.
func (s *Solver) Loaded() {
	if s.d32 != nil {
		// Shapes match by construction; the error path is unreachable.
		if err := s.d32.FromGrid(s.Fluid); err != nil {
			panic(err)
		}
	}
	core.SeedForce(s.Fluid.Macros(), s.BodyForce)
}

// CopyNodeDist overwrites node dst's present distribution with node
// src's, in whichever storage mode is active — the perturbation seam the
// crosscheck fault-injection selftest drives through FaultHook.
func (s *Solver) CopyNodeDist(dst, src int) {
	if s.d32 != nil {
		cb := s.d32.Buf(s.d32.Cur())
		copy(cb[dst*lattice.Q:(dst+1)*lattice.Q], cb[src*lattice.Q:(src+1)*lattice.Q])
		return
	}
	df := s.Fluid.Dist(s.Fluid.Cur())
	df[dst] = df[src]
}
