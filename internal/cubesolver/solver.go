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
// Kernel 7 runs only on the cubes the structure's stencils reach
// (core.Support); every other cube's moments are folded into its next
// collide. A fluid-only step is therefore one pass over the fluid and
// one barrier crossing (after_stream), and a step with a structure
// crosses four (after_spread, after_stream, after_velocity,
// end_of_step) on more than one worker.
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
	// Support says which cubes' records are fresh and which the step's
	// stencils reach.
	Support *core.Support

	// canonicalizePiece bound once, for Digest.
	canonRun func(p int)

	// Ownership, resolved once from the block distribution: owned[tid]
	// lists thread tid's cubes in cube-index order (Algorithm 4's "for
	// each cube ... if cube2thread(I,J,K) == tid"), box[tid] is the
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
		Support: core.NewSupport(layout.NumCubes()),
	}
	s.canonRun = s.canonicalizePiece
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
			s.timeStep(st, st-first, tid, p0 != ((st-first)&1 == 1))
		}
	})
	s.step += n
	s.swapped = p0 != (n&1 == 1)
	s.Support.Advance(n)
}

// Refresh brings every stale record up to date (core.RefreshAll). Call
// it between steps only.
func (s *Solver) Refresh() { core.RefreshAll(s.stream, s.Fluid.Dist(), s.Support, s.swapped) }

// Live returns the layout with its distributions in the natural phase
// and every record fresh: Canonical, then Refresh, which then reads each
// node's own slots. Call it between steps only.
func (s *Solver) Live() *cube.Layout {
	s.Canonical()
	s.Refresh()
	return s.Fluid
}

// Canonical returns the layout with its distributions in the natural
// phase, canonicalizing the array in place if the last step left it
// swapped, and its records as the last step left them, stale ones
// included: what a reader of the distributions alone needs. Call it
// between steps only.
func (s *Solver) Canonical() *cube.Layout {
	if s.swapped {
		core.Canonicalize(s.stream, s.Fluid.Dist())
		s.swapped = false
	}
	return s.Fluid
}

// Digest fills d from the layout on the worker team, leaving the layout
// as Live leaves it, bitwise as the layout's own one-goroutine Digest of
// Live's layout. If the last step left the array swapped, the team first
// canonicalizes it, one contiguous range of cubes per worker
// (core.CanonicalizeBlocks), and joins; then each worker digests one
// contiguous range of cubes, refreshing each stale cube's records in the
// same loop (grid.DigestGrid.Begin). Every step after a digest therefore
// starts from the natural phase. Call it between steps only.
func (s *Solver) Digest(d *grid.DigestGrid) error {
	fresh, _ := s.Support.Sets(0)
	part, err := d.Begin(s.Fluid, s.team.Size(), fresh)
	if err != nil {
		return err
	}
	if s.swapped {
		s.team.Run(s.canonRun)
		s.swapped = false
	}
	s.team.Run(part)
	s.Support.Refreshed()
	d.End()
	return nil
}

// canonicalizePiece canonicalizes worker p's static share of the cubes,
// the range its digest piece then reads.
func (s *Solver) canonicalizePiece(p int) {
	lo, hi := par.StaticRange(s.Fluid.NumCubes(), s.team.Size(), p)
	core.CanonicalizeBlocks(s.stream, s.Fluid.Dist(), lo, hi)
}

// timeStep is Thread_entry_fn's per-step body (Algorithm 4). k counts
// the step from the start of the Run, which selects its support sets
// (core.Support.Sets); swapped is the array's phase at the start of the
// step, derived from the step index by Run.
func (s *Solver) timeStep(step, k, tid int, swapped bool) {
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
	phase(core.PhaseCollideStream, func() { s.collideStreamLoop(tid, k, swapped) })
	s.waitBarrier(core.SiteAfterStream, tid, step) // streaming → velocity-update dependency (paper's 1st barrier)

	// 3rd loop: kernel 7 on the owned cubes of the step's support,
	// reading neighbour cubes' slots at the phase the 2nd loop left.
	phase(core.PhaseUpdateVelocity, func() { s.updateVelocityLoop(tid, k, !swapped) })
	// Velocity → move-fibers dependency (paper's 2nd barrier). It orders
	// nothing in a fluid-only run, whose support is empty: the 3rd loop
	// then reads and writes nothing, and after_stream already orders this
	// step's collide before the next one's. The condition is
	// thread-invariant.
	if s.hasFibers() {
		s.waitBarrier(core.SiteAfterVelocity, tid, step)
	}

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
	return s.team.Size() > 1 && s.hasFibers()
}

// hasFibers reports whether a structure with at least one fiber node is
// immersed: only then do kernels 4 and 8 touch the fluid.
func (s *Solver) hasFibers() bool { return fiber.TotalFibers(s.Sheets) > 0 }

// forOwnedFibers visits thread tid's fibers as (sheet, node-range)
// pieces in global fiber order — Algorithm 4's "for each fiber ... if
// fiber2thread(i) == tid".
func (s *Solver) forOwnedFibers(tid int, body func(sh *fiber.Sheet, nodeLo, nodeHi int)) {
	core.ForFibers(s.Sheets, s.fibers[tid][0], s.fibers[tid][1], body)
}

// fiberForceLoop runs kernels 1–3 for the fibers owned by tid.
func (s *Solver) fiberForceLoop(tid int) {
	s.forOwnedFibers(tid, func(sh *fiber.Sheet, lo, hi int) {
		sh.ComputeBendingForce(lo, hi)
		sh.ComputeStretchingForce(lo, hi)
		sh.ComputeElasticForce(lo, hi)
	})
}

// collideStreamLoop runs kernel 4 of the k-th step of the Run into the
// box of cubes owned by tid — the owner is the only thread writing their
// forces and marking them in the step's support — then kernels 5 and 6
// over those cubes, fused per cube as in Algorithm 4, a cube with a stale
// record folding its moments in (core.Support.Take).
func (s *Solver) collideStreamLoop(tid, k int, swapped bool) {
	_, reach := s.Support.Sets(k)
	core.SpreadBox(s.Fluid.Coupling, s.Sheets, s.box[tid], reach)
	df := s.Fluid.Dist()
	for _, c := range s.owned[tid] {
		fold, force := s.Support.Take(k, c, &s.BodyForce)
		core.AABlock(s.stream, df, c, s.Tau, swapped, fold, force)
	}
}

// updateVelocityLoop runs kernel 7 of the k-th step of the Run over
// thread tid's share of the step's support (core.Share) at the array's
// phase swapped, resetting each node's force to the uniform body force
// in the same pass — the reset the paper's loop 5 performed, folded here
// so the retired copy loop leaves nothing behind. Every other cube's
// record is left stale. The support is dealt evenly over the team, not
// by ownership: a structure's stencils reach a few neighbouring cubes,
// which one thread's box would hold. That is safe because the loop sits
// between the after-stream and after-velocity barriers: the cubes it
// reads were all streamed, and no thread writes a record until the next
// step's spread. A fluid-only step has an empty support and skips the
// loop, and must: its end-of-step barrier folds away, so another thread
// may already be clearing this step's reach set (core.Support.Take)
// while the scan would read it.
func (s *Solver) updateVelocityLoop(tid, k int, swapped bool) {
	if !s.hasFibers() {
		return
	}
	_, reach := s.Support.Sets(k)
	df := s.Fluid.Dist()
	lo, hi := core.Share(reach, s.team.Size(), tid)
	for c := lo; c < hi; c++ {
		if reach[c] {
			core.AAMomentsBlock(s.stream, df, c, swapped, &s.BodyForce)
		}
	}
}

// moveFibersLoop runs kernel 8 over owned fibers. Fluid velocities are
// read-only in this phase.
func (s *Solver) moveFibersLoop(tid int) {
	s.forOwnedFibers(tid, func(sh *fiber.Sheet, lo, hi int) {
		core.MoveSheetNodes(s.Fluid.Coupling, sh, lo, hi)
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
		_, reach := s.Support.Sets(0)
		core.SpreadBox(s.Fluid.Coupling, s.Sheets, s.box[tid], reach)
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
