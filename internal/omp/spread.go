// Lock-free force spreading for the loop-parallel solver: per-thread
// sparse x-plane accumulation plus a slab-parallel reduction region.
// The scheme and its determinism guarantee are described in DESIGN.md
// §13.
package omp

// planeAccum is one worker's private force-accumulation store. It is
// sparse over x-planes: a plane's NY*NZ block is allocated the first
// time the worker spreads into it and kept for the solver's lifetime,
// so a localized structure costs a few planes per worker rather than a
// full-grid force copy each.
//
// gen[x] stamps which spread generation planes[x]'s contents belong to.
// Generations are never reused and the reduction zeroes every block it
// consumes, so any block whose stamp is stale is known all-zero — which
// is what lets accumulation skip per-step zeroing entirely.
type planeAccum struct {
	planes [][][3]float64
	gen    []int
}

func newPlaneAccum(nx int) *planeAccum {
	return &planeAccum{
		planes: make([][][3]float64, nx),
		gen:    make([]int, nx),
	}
}

// plane returns x's accumulation block stamped for generation gen,
// allocating it on first touch. A re-stamped block needs no zeroing
// (see the invariant above).
func (a *planeAccum) plane(x, nodes, gen int) [][3]float64 {
	if a.gen[x] != gen {
		if a.planes[x] == nil {
			a.planes[x] = make([][3]float64, nodes)
		}
		a.gen[x] = gen
	}
	return a.planes[x]
}

// gridWriter scatters straight into the grid, used when the team has a
// single worker: spreading cannot race there, and buffering would only
// change the floating-point accumulation order away from the sequential
// solver's fiber order — the crosscheck contract expects one-thread runs
// to be bitwise-equal to the sequential reference.
type gridWriter struct{ s *Solver }

func (w gridWriter) AddForce(x, y, z int, f [3]float64) {
	g := w.s.Fluid
	wx, wy, wz := g.Wrap(x, y, z)
	n := &g.Nodes[g.Idx(wx, wy, wz)]
	n.Force[0] += f[0]
	n.Force[1] += f[1]
	n.Force[2] += f[2]
}

// planeWriter adapts a worker's planeAccum as an ibm.ForceAccumulator.
// Every contribution lands in the worker's private blocks — unlike the
// cube solver there is no fiber-to-plane ownership to exploit for
// direct grid writes — and the reduction region folds them into the
// grid afterwards.
type planeWriter struct {
	s   *Solver
	acc *planeAccum
	gen int
}

// AddForce implements ibm.ForceAccumulator; coordinates may be
// unwrapped, exactly as ibm.Spread produces them.
func (w *planeWriter) AddForce(x, y, z int, f [3]float64) {
	g := w.s.Fluid
	wx, wy, wz := g.Wrap(x, y, z)
	nodes := g.NY * g.NZ
	b := w.acc.plane(wx, nodes, w.gen)
	p := &b[g.Idx(wx, wy, wz)-wx*nodes]
	p[0] += f[0]
	p[1] += f[1]
	p[2] += f[2]
}

// reduceSpread folds every worker's accumulated contributions into the
// grid as a parallel region over x-slabs — each plane has exactly one
// reducing thread — and zeroes the consumed blocks. Within a plane the
// sweep visits workers in ascending thread index, so under the Static
// schedule (fixed fiber-to-thread assignment) the floating-point
// accumulation order is identical from run to run at a fixed thread
// count. The accumulate region's closing barrier orders all writes to
// the accums before any read here.
func (s *Solver) reduceSpread(gen int) {
	g := s.Fluid
	s.parallelFor(g.NX, func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			base := x * g.NY * g.NZ
			for t := range s.accums {
				a := s.accums[t]
				if a.gen[x] != gen {
					continue
				}
				b := a.planes[x]
				for i := range b {
					n := &g.Nodes[base+i]
					n.Force[0] += b[i][0]
					n.Force[1] += b[i][1]
					n.Force[2] += b[i][2]
					b[i] = [3]float64{}
				}
			}
		}
	})
}
