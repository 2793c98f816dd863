// Lock-free force spreading: per-thread sparse accumulation plus a
// deterministic owner-partitioned reduction; see DESIGN.md §13 for the
// scheme's invariants.
package cubesolver

import "lbmib/internal/fiber"

// spreadAccum is one worker's private force-accumulation store. It is
// sparse: a cube's k³-node block is allocated the first time the worker
// spreads into that cube and kept for the solver's lifetime, so a
// localized structure costs a few blocks per worker rather than a
// full-grid force copy each.
//
// gen[c] stamps which spread generation blocks[c]'s contents belong to.
// Generations are never reused, and the owning thread's reduction zeroes
// every block it consumes — together these give the invariant that any
// block whose stamp is not the current generation is all-zero, which is
// what lets accumulation skip per-step zeroing entirely.
type spreadAccum struct {
	blocks [][][3]float64
	gen    []int
}

func newSpreadAccum(numCubes int) *spreadAccum {
	return &spreadAccum{
		blocks: make([][][3]float64, numCubes),
		gen:    make([]int, numCubes),
	}
}

// block returns cube c's accumulation block stamped for generation gen,
// allocating it on first touch. A re-stamped block needs no zeroing (see
// the invariant above).
func (a *spreadAccum) block(c, nodes, gen int) [][3]float64 {
	if a.gen[c] != gen {
		if a.blocks[c] == nil {
			a.blocks[c] = make([][3]float64, nodes)
		}
		a.gen[c] = gen
	}
	return a.blocks[c]
}

// accumWriter adapts a worker's spreadAccum as an ibm.ForceAccumulator.
// Contributions to cubes the worker itself owns go straight to the grid
// — the owner is the only writer of its cubes' forces before the spread
// barrier — and all others land in the private per-cube blocks for the
// owner's reduction. Both destinations are filled in the worker's fixed
// fiber order, which is half of the determinism guarantee (the reduction
// sweep order is the other half).
type accumWriter struct {
	s   *Solver
	acc *spreadAccum
	tid int
	gen int
}

// AddForce implements ibm.ForceAccumulator; coordinates may be
// unwrapped, exactly as ibm.Spread produces them.
func (w *accumWriter) AddForce(x, y, z int, f [3]float64) {
	l := w.s.Fluid
	gx, gy, gz := l.Wrap(x, y, z)
	idx := l.Idx(gx, gy, gz)
	if w.s.Map.CubeToThread(l.CubeOf(gx, gy, gz)) == w.tid {
		n := &l.Nodes[idx]
		n.Force[0] += f[0]
		n.Force[1] += f[1]
		n.Force[2] += f[2]
		return
	}
	nodes := l.K * l.K * l.K
	c := idx / nodes
	b := w.acc.block(c, nodes, w.gen)
	p := &b[idx-c*nodes]
	p[0] += f[0]
	p[1] += f[1]
	p[2] += f[2]
}

// reduceSpreadCube folds every worker's accumulated contributions for
// cube c into the grid and zeroes the consumed blocks. The sweep visits
// workers in ascending thread index, so at a fixed thread count the
// floating-point accumulation order — owner-direct writes in fiber
// order, then thread 0's block, then thread 1's, … — is identical from
// run to run. Only cube c's owner calls this (after the spread barrier),
// so no other thread touches these nodes or blocks concurrently.
func (s *Solver) reduceSpreadCube(c, gen int) {
	nodes := s.Fluid.CubeNodes(c)
	for t := range s.accums {
		a := s.accums[t]
		if a.gen[c] != gen {
			continue
		}
		b := a.blocks[c]
		for i := range nodes {
			nodes[i].Force[0] += b[i][0]
			nodes[i].Force[1] += b[i][1]
			nodes[i].Force[2] += b[i][2]
			b[i] = [3]float64{}
		}
	}
}

// spreadBarrierNeeded reports whether the after-spread barrier orders
// anything: it does only when more than one worker exists and fiber
// forces are actually spread. The end-of-step barrier shares the
// predicate: in a fluid-only run the phases it separates (move-fibers,
// the parity flip) are free of cross-thread effects — workers derive
// their parity from the step index, so thread 0's Swap is unread until
// the team joins — a legality the phase-effect analyzer proves
// statically (lbmib-lint -fusibility; DESIGN.md §16); with fibers the
// next step's bending stencil reads sheet positions that move-fibers
// wrote on other threads. The result depends on no per-thread state, so
// every worker takes the same branch at the call sites.
func (s *Solver) spreadBarrierNeeded() bool {
	return s.team.Size() > 1 && fiber.TotalFibers(s.Sheets) > 0
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
			s.waitBarrier(SiteAfterSpread, tid)
		}
		if fiber.TotalFibers(s.Sheets) > 0 {
			s.forOwnedCubes(tid, func(c int) { s.reduceSpreadCube(c, gen) })
		}
	})
}
