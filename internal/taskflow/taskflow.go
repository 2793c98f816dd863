// Package taskflow implements the paper's stated future work (Section
// VIII): a cube-based LBM-IB solver that replaces Algorithm 4's global
// barriers with dynamic task scheduling over a per-cube dependency graph,
// which also overlaps adjacent time steps — a cube far from the immersed
// structure may start time step t+1 while other cubes are still finishing
// step t.
//
// Tasks and dependencies per time step t (cube c, N(c) = c plus its 26
// periodic neighbors, I(t) = the cubes the fiber sheet can influence at
// step t):
//
//	FiberForce(t)   kernels 1–4. Needs MoveFibers(t−1) and Copy(c, t−1)
//	                for every c ∈ I(t) (the copy task resets the force
//	                field the spreading accumulates into).
//	CS(c, t)        kernels 5–6 fused over cube c. Needs Copy(n, t−1) for
//	                n ∈ N(c) (streaming writes n's post-streaming buffer,
//	                which Copy(n, t−1) must have drained), and
//	                FiberForce(t) when c ∈ I(t).
//	UV(c, t)        kernel 7. Needs CS(n, t) for n ∈ N(c) (the velocity
//	                update reads distributions streamed in from neighbors).
//	MoveFibers(t)   kernel 8. Needs UV(c, t) for every c ∈ I(t).
//	Copy(c, t)      kernel 9 + force reset. Needs UV(c, t).
//
// Every dependency points backward in (step, phase) order, so the graph is
// acyclic and the schedule deadlock-free. The fiber tasks are single tasks
// (the structure is small — Table I), which makes force spreading
// sequential within a step and the whole solver's results bitwise
// reproducible and bitwise equal to the sequential reference.
//
// I(t) is the sheet's bounding box at the time FiberForce(t) becomes
// runnable, expanded by the delta support plus a safety margin and rounded
// out to whole cubes; if the box wraps the periodic domain the set
// conservatively becomes "all cubes".
//
// The task bodies are internal/core's loop bodies; the layout is never
// swapped (Copy is kernel 9 as published), so its buffer parity stays 0.
package taskflow

import (
	"fmt"
	"sync"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cube"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
)

// phaseOf maps a task kind to the Algorithm-4 phase it implements: each
// executed task is reported as one phase event with the task's step and
// the executing worker as tid. A worker here is a dynamic scheduler, so
// unlike the cube engine a phase may be reported many times per
// (step, tid) — once per task — and consumers aggregate.
var phaseOf = [...]core.Phase{
	phFiberForce: core.PhaseFibersForce,
	phCS:         core.PhaseCollideStream,
	phUV:         core.PhaseUpdateVelocity,
	phMove:       core.PhaseMoveFibers,
	phCopy:       core.PhaseCopy,
}

// Config assembles a task-scheduled cube LBM-IB problem; there is no
// barrier schedule because there are no barriers.
type Config struct {
	core.Config
	CubeSize int // k; fluid dimensions must be multiples of it (default 4)
	Workers  int
}

// phase identifies a task kind.
type phase int

const (
	phFiberForce phase = iota
	phCS
	phUV
	phMove
	phCopy
)

// task is one schedulable unit.
type task struct {
	ph   phase
	cube int // -1 for fiber tasks
	step int
}

// Solver runs the LBM-IB method under dynamic task scheduling.
type Solver struct {
	core.Problem
	Fluid *cube.Layout

	stream  *core.Streamer
	workers int
	step    int

	// Completion frontier: the last step for which each task finished.
	csDone, uvDone, copyDone []int
	forceDone, moveDone      int

	// Enqueue frontier: the last step for which each task has been put on
	// the ready queue (or is executing). A task is enqueued exactly once
	// because per-cube tasks are strictly ordered by the dependency
	// chain CS(t) → UV(t) → Copy(t) → CS(t+1).
	csQ, uvQ, copyQ []int
	forceQ, moveQ   int

	neighbors [][]int // 27 distinct periodic neighbor cubes (incl. self)

	// Per-step influence set, published when FiberForce(t) runs. Two
	// slots alternate between the in-flight steps; inflStep records which
	// step each slot currently holds.
	influence [2][]bool
	inflStep  [2]int

	mu      sync.Mutex
	cond    *sync.Cond
	ready   []task
	pending int // tasks not yet completed in the current Run window
	target  int // run until step == target
}

// NewSolver validates the configuration and builds the dependency
// machinery.
func NewSolver(cfg Config) (*Solver, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.CubeSize == 0 {
		cfg.CubeSize = 4
	}
	p, err := core.NewProblem(cfg.Config)
	if err != nil {
		return nil, fmt.Errorf("taskflow: %w", err)
	}
	layout, err := cube.NewLayout(cfg.NX, cfg.NY, cfg.NZ, cfg.CubeSize)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		Problem:  p,
		Fluid:    layout,
		stream:   core.NewStreamer(layout, p.StreamBC(cfg.NX, cfg.NY, cfg.NZ)),
		workers:  cfg.Workers,
		csDone:   make([]int, layout.NumCubes()),
		uvDone:   make([]int, layout.NumCubes()),
		copyDone: make([]int, layout.NumCubes()),
		csQ:      make([]int, layout.NumCubes()),
		uvQ:      make([]int, layout.NumCubes()),
		copyQ:    make([]int, layout.NumCubes()),
	}
	s.cond = sync.NewCond(&s.mu)
	for c := range s.csDone {
		s.csDone[c] = -1
		s.uvDone[c] = -1
		// The initial state plays the role of Copy(·, −1): both buffers
		// equal and the force field freshly reset.
		s.copyDone[c] = -1
		s.csQ[c] = -1
		s.uvQ[c] = -1
		s.copyQ[c] = -1
	}
	s.forceDone = -1
	s.moveDone = -1
	s.forceQ = -1
	s.moveQ = -1
	s.inflStep[0] = -1
	s.inflStep[1] = -1
	s.buildNeighbors()
	core.SeedForce(layout.Macros(), s.BodyForce)
	return s, nil
}

func (s *Solver) buildNeighbors() {
	l := s.Fluid
	s.neighbors = make([][]int, l.NumCubes())
	for c := 0; c < l.NumCubes(); c++ {
		cx, cy, cz := l.CubeCoord(c)
		seen := map[int]bool{}
		var list []int
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					n := l.CubeIndex(grid.WrapIndex(cx+dx, l.CX), grid.WrapIndex(cy+dy, l.CY), grid.WrapIndex(cz+dz, l.CZ))
					if !seen[n] {
						seen[n] = true
						list = append(list, n)
					}
				}
			}
		}
		s.neighbors[c] = list
	}
}

// StepCount returns the number of completed time steps.
func (s *Solver) StepCount() int { return s.step }

// Step advances one time step.
func (s *Solver) Step() { s.Run(1) }

// Run executes n time steps with the dynamic scheduler. Tasks from
// adjacent steps overlap freely within the dependency constraints.
//
//lint:allow hotalloc -- worker goroutines spawn once per Run call and amortize over all n steps
func (s *Solver) Run(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.target = s.step + n
	// Total tasks in the window: per step, 2 fiber tasks (skipped without
	// a sheet) + 3 tasks per cube.
	perStep := 3 * s.Fluid.NumCubes()
	if len(s.Sheets) > 0 {
		perStep += 2
	}
	s.pending = n * perStep
	// Seed: everything that is ready at the frontier.
	for t := s.step; t < s.target; t++ {
		s.seedStep(t)
	}
	s.mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.workerLoop(w)
		}(w)
	}
	wg.Wait()
	s.step = s.target
}

// seedStep enqueues the step's initially-ready tasks (those whose
// dependencies were already satisfied when Run started). Later readiness
// is discovered on task completion.
func (s *Solver) seedStep(t int) {
	if len(s.Sheets) > 0 && s.fiberForceReady(t) {
		s.enqueue(task{phFiberForce, -1, t})
	}
	for c := 0; c < s.Fluid.NumCubes(); c++ {
		if s.csReady(c, t) {
			s.enqueue(task{phCS, c, t})
		}
	}
}

// --- readiness predicates (mu held) ---
//
// Each predicate also consults the enqueue frontier so a task already on
// the queue (or executing) is never enqueued twice.

func (s *Solver) fiberForceReady(t int) bool {
	if s.forceQ >= t {
		return false
	}
	if s.moveDone != t-1 {
		return false
	}
	// Conservative: spreading needs the force reset of every cube it may
	// touch; the influence set for step t is unknown until the task runs,
	// so require Copy(·, t−1) on all cubes. The fiber task is tiny and
	// this only serializes it against the trailing edge of step t−1;
	// cube tasks still pipeline.
	for c := range s.copyDone {
		if s.copyDone[c] < t-1 {
			return false
		}
	}
	return true
}

func (s *Solver) influencedKnown(t int) bool { return s.inflStep[t&1] == t }

func (s *Solver) influenced(c, t int) bool { return s.influence[t&1][c] }

func (s *Solver) csReady(c, t int) bool {
	if s.csQ[c] >= t {
		return false
	}
	for _, n := range s.neighbors[c] {
		if s.copyDone[n] < t-1 {
			return false
		}
	}
	if len(s.Sheets) > 0 {
		if !s.influencedKnown(t) {
			return false
		}
		if s.influenced(c, t) && s.forceDone < t {
			return false
		}
	}
	return true
}

func (s *Solver) uvReady(c, t int) bool {
	if s.uvQ[c] >= t || s.csDone[c] < t {
		return false
	}
	for _, n := range s.neighbors[c] {
		if s.csDone[n] < t {
			return false
		}
	}
	return true
}

func (s *Solver) moveReady(t int) bool {
	if s.moveQ >= t || s.forceDone < t {
		return false
	}
	for c := 0; c < s.Fluid.NumCubes(); c++ {
		if s.influenced(c, t) && s.uvDone[c] < t {
			return false
		}
	}
	return true
}

func (s *Solver) copyReady(c, t int) bool {
	return s.copyQ[c] < t && s.uvDone[c] >= t
}

// enqueue appends a task to the ready queue, advances the enqueue
// frontier, and wakes a worker. Callers verify readiness first.
func (s *Solver) enqueue(t task) {
	switch t.ph {
	case phFiberForce:
		s.forceQ = t.step
	case phCS:
		s.csQ[t.cube] = t.step
	case phUV:
		s.uvQ[t.cube] = t.step
	case phMove:
		s.moveQ = t.step
	case phCopy:
		s.copyQ[t.cube] = t.step
	}
	s.ready = append(s.ready, t)
	s.cond.Signal()
}

// workerLoop pulls ready tasks until the window completes. w is the
// worker index, used only for phase attribution.
func (s *Solver) workerLoop(w int) {
	s.mu.Lock()
	for {
		if s.pending == 0 {
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		}
		if len(s.ready) == 0 {
			s.cond.Wait()
			continue
		}
		t := s.ready[len(s.ready)-1]
		s.ready = s.ready[:len(s.ready)-1]
		s.mu.Unlock()

		if probe := s.Probe; probe != nil {
			t0 := time.Now()
			s.execute(t)
			probe.Emit(core.Event{Kind: core.PhaseDone, Step: t.step, Tid: w, Phase: phaseOf[t.ph], D: time.Since(t0)})
		} else {
			s.execute(t)
		}

		s.mu.Lock()
		s.complete(t)
	}
}

// execute runs the task body without holding the scheduler lock. The
// layout is never swapped, so its parity is the one it was built with
// throughout.
func (s *Solver) execute(t task) {
	l, cur := s.Fluid, s.Fluid.Cur()
	lo, hi := l.CubeRange(t.cube) // unread by the fiber tasks, whose cube is −1
	switch t.ph {
	case phFiberForce:
		s.runFiberForce(t.step)
	case phCS:
		core.CollideRange(l.Dist(cur)[lo:hi], l.Macros()[lo:hi], s.Tau)
		s.stream.Block(t.cube, cur)
	case phUV:
		core.UpdateRange(l.Dist(1 - cur)[lo:hi], l.Macros()[lo:hi], nil)
	case phMove:
		for _, sh := range s.Sheets {
			core.MoveSheetNodes(l, sh, 0, sh.NumNodes())
		}
	case phCopy:
		core.CopyRange(l.Dist(cur)[lo:hi], l.Dist(1 - cur)[lo:hi])
		core.SeedForce(l.Macros()[lo:hi], s.BodyForce)
	}
}

// complete advances the frontier and enqueues newly-ready dependents
// (mu held).
func (s *Solver) complete(t task) {
	s.pending--
	switch t.ph {
	case phFiberForce:
		s.forceDone = t.step
		// The influence set is now known, so every cube of this step —
		// influenced (waiting for the spread) or not (waiting for the set
		// to be published) — may have become runnable.
		for c := 0; c < s.Fluid.NumCubes(); c++ {
			if s.csReady(c, t.step) {
				s.enqueue(task{phCS, c, t.step})
			}
		}
	case phCS:
		s.csDone[t.cube] = t.step
		for _, n := range s.neighbors[t.cube] {
			if s.uvReady(n, t.step) {
				s.enqueue(task{phUV, n, t.step})
			}
		}
	case phUV:
		s.uvDone[t.cube] = t.step
		if s.copyReady(t.cube, t.step) {
			s.enqueue(task{phCopy, t.cube, t.step})
		}
		if len(s.Sheets) > 0 && s.influenced(t.cube, t.step) && s.moveReady(t.step) {
			s.enqueue(task{phMove, -1, t.step})
		}
	case phMove:
		s.moveDone = t.step
		if t.step+1 < s.target && len(s.Sheets) > 0 && s.fiberForceReady(t.step+1) {
			s.enqueue(task{phFiberForce, -1, t.step + 1})
		}
	case phCopy:
		s.copyDone[t.cube] = t.step
		next := t.step + 1
		if next < s.target {
			for _, n := range s.neighbors[t.cube] {
				if s.csReady(n, next) {
					s.enqueue(task{phCS, n, next})
				}
			}
			if len(s.Sheets) > 0 && s.fiberForceReady(next) {
				s.enqueue(task{phFiberForce, -1, next})
			}
		}
	}
	if s.pending == 0 {
		s.cond.Broadcast()
	} else {
		s.cond.Signal()
	}
}

// runFiberForce executes kernels 1–4 over every sheet and publishes the
// step's influence set.
func (s *Solver) runFiberForce(step int) {
	infl := make([]bool, s.Fluid.NumCubes())
	for _, sh := range s.Sheets {
		sh.ComputeBendingForce(0, sh.NumNodes())
		sh.ComputeStretchingForce(0, sh.NumNodes())
		sh.ComputeElasticForce(0, sh.NumNodes())
		s.markInfluence(infl, sh)
		core.SpreadSheetNodes(s.Fluid, sh, 0, sh.NumNodes())
	}
	s.mu.Lock()
	slot := step & 1
	s.influence[slot] = infl
	s.inflStep[slot] = step
	s.mu.Unlock()
}

// markInfluence adds the conservative set of cubes one sheet can touch
// this step (spread now, interpolation after one explicit-Euler move
// bounded by the CFL-limited displacement < 1 lattice unit) to infl.
func (s *Solver) markInfluence(infl []bool, sh *fiber.Sheet) {
	l := s.Fluid
	const margin = 4 // delta support (2) + one-step motion (1) + safety
	lo := [3]float64{sh.X[0][0], sh.X[0][1], sh.X[0][2]}
	hi := lo
	for _, x := range sh.X {
		for d := 0; d < 3; d++ {
			if x[d] < lo[d] {
				lo[d] = x[d]
			}
			if x[d] > hi[d] {
				hi[d] = x[d]
			}
		}
	}
	dims := [3]int{l.NX, l.NY, l.NZ}
	var cubeLo, cubeHi [3]int
	for d := 0; d < 3; d++ {
		a := int(lo[d]) - margin
		b := int(hi[d]) + margin
		if b-a+1 >= dims[d] {
			// The box covers (or wraps past) the whole axis.
			a, b = 0, dims[d]-1
		}
		cubeLo[d] = a
		cubeHi[d] = b
	}
	for x := cubeLo[0]; x <= cubeHi[0]; x++ {
		for y := cubeLo[1]; y <= cubeHi[1]; y++ {
			for z := cubeLo[2]; z <= cubeHi[2]; z++ {
				infl[l.CubeIndex(l.CubeOf(l.Wrap(x, y, z)))] = true
			}
		}
	}
}
