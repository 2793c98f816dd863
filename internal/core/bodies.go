package core

import (
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/ibm"
	"lbmib/internal/lattice"
)

// Layout is the block-layout contract the loop bodies are written
// against; *grid.Grid and *cube.Layout are its two implementations. A
// layout stores the NX×NY×NZ fluid nodes split: one distribution array
// per buffer parity, Dist(0) and Dist(1), and one array of the 56 B
// grid.Macro record (u, ρ, F), Macros(), all in the same node order. The
// nodes form equal-sized contiguous blocks — an x-plane of NY·NZ nodes in
// the slab grid, a cube of K³ in the cube layout: block b is the box
// BlockBox(b) of the domain and occupies entries [b·n, (b+1)·n) of every
// array, n the box's node count, ordered z-fastest inside the box. Idx is
// separable per axis,
//
//	Idx(x, y, z) = Idx(x, 0, 0) + Idx(0, y, 0) + Idx(0, 0, z),
//
// which lets the bodies tabulate it once (grid.AxisIndex) and index the
// arrays directly in their inner loops instead of calling through the
// interface. The present distributions are Dist(Cur()), the
// post-streaming ones Dist(1-Cur()).
type Layout interface {
	Dims() (nx, ny, nz int)
	Dist(b int) [][lattice.Q]float64
	Macros() []grid.Macro
	BlockBox(b int) (origin, extent [3]int)
	Idx(x, y, z int) int
	Wrap(x, y, z int) (int, int, int)
	Cur() int
	Digest(d *grid.DigestGrid) error
}

// SeedForce sets every record's force to the uniform body force: kernel
// 4's reset in the sequential solver, and in the engines that fold that
// reset into their update or copy pass the between-steps invariant
// spreading accumulates on top of — they seed at construction and after
// loading external state (a checkpoint) into the fluid container.
func SeedForce(m []grid.Macro, body [3]float64) {
	for i := range m {
		m[i].Force = body
	}
}

// CollideRange is kernel 5 over a node range: the BGK collision with Guo
// forcing, in place on the present distributions df, reading the records
// m of the same nodes. df may be stored in either element type
// (lattice.Collide's rule).
func CollideRange[T lattice.Float](df [][lattice.Q]T, m []grid.Macro, tau float64) {
	df = df[:len(m)]
	for i := range m {
		n := &m[i]
		lattice.Collide(&df[i], n.Rho, n.Vel, n.Force, tau)
	}
}

// UpdateRange is kernel 7 over a node range: density and velocity from
// the post-streaming distributions df and the elastic force (half-force
// Guo correction), into the records m. A non-nil reset is then stored as
// the node's force in the same pass — the fold that lets the engines which
// retire kernel 4's full-grid reset keep spreading on top of the body
// force.
func UpdateRange[T lattice.Float](df [][lattice.Q]T, m []grid.Macro, reset *[3]float64) {
	df = df[:len(m)]
	for i := range m {
		n := &m[i]
		n.Rho = lattice.Moments(&df[i], n.Force, &n.Vel)
		if reset != nil {
			n.Force = *reset
		}
	}
}

// CopyRange is kernel 9 over a node range as published: the
// post-streaming distributions src are copied into the present ones dst.
func CopyRange(dst, src [][lattice.Q]float64) { copy(dst, src) }

// StreamBC resolves the boundary streaming of one (node, direction) pair:
// the periodic wrap, the halfway bounce-back walls, and the moving-lid
// momentum-exchange term (Ladd). Every engine streams boundary nodes
// through the same Resolve body — the push engines via Streamer.Block,
// the fused engine via FinalizeBlock — so they cannot drift apart.
// Lattice velocities have components in {−1, 0, 1}, so wrapping needs
// only a compare-and-add, not a modulo.
type StreamBC struct {
	NX, NY, NZ    int
	BCX, BCY, BCZ BC
	LidVelocity   [3]float64
}

// Resolve classifies the streaming of direction q from node (x, y, z)
// whose distribution value is gi and density rho. If the move crosses a
// bounce-back wall it returns bounce = true with the reflected value
// refl, which the caller must store into the source node's post-streaming
// buffer at lattice.Opposite[q]; otherwise it returns the (periodically
// wrapped) target coordinates into whose post-streaming buffer the caller
// stores gi at q.
func (bc *StreamBC) Resolve(q, x, y, z int, gi, rho float64) (tx, ty, tz int, refl float64, bounce bool) {
	tx = x + lattice.E[q][0]
	ty = y + lattice.E[q][1]
	tz = z + lattice.E[q][2]
	if (bc.BCX == BounceBack && (tx < 0 || tx >= bc.NX)) ||
		(bc.BCY == BounceBack && (ty < 0 || ty >= bc.NY)) ||
		(bc.BCZ == BounceBack && (tz < 0 || tz >= bc.NZ)) {
		// Halfway bounce-back: the particle returns to its node with
		// reversed velocity. The z-max wall may move (Ladd's
		// momentum-exchange term).
		refl = gi
		if bc.BCZ == BounceBack && tz >= bc.NZ && bc.LidVelocity != ([3]float64{}) {
			eu := float64(lattice.E[q][0])*bc.LidVelocity[0] +
				float64(lattice.E[q][1])*bc.LidVelocity[1] +
				float64(lattice.E[q][2])*bc.LidVelocity[2]
			refl -= 6 * lattice.W[q] * rho * eu
		}
		return 0, 0, 0, refl, true
	}
	if tx < 0 {
		tx += bc.NX
	} else if tx >= bc.NX {
		tx -= bc.NX
	}
	if ty < 0 {
		ty += bc.NY
	} else if ty >= bc.NY {
		ty -= bc.NY
	}
	if tz < 0 {
		tz += bc.NZ
	} else if tz >= bc.NZ {
		tz -= bc.NZ
	}
	return tx, ty, tz, 0, false
}

// Streamer is kernel 6's stream geometry bound to one layout and one set
// of boundary conditions: the per-axis index tables, where the fixed
// stride holds, and the boundary resolution. Two bodies read it, one per
// direction of data flow:
//
//   - Block pushes: node n writes its post-collision g_i into slot i of
//     its downstream neighbour n+e_i. The sequential, omp and cube
//     engines run it between collide and update.
//   - FinalizeBlock pulls: node n gathers slot q from its upwind
//     neighbour n−e_q, then updates its own moments. The fused engine
//     runs it inside its collide-then-finalise wavefront.
//
// The two are value-wise identical, slot by slot. Each post-streaming
// slot (n, q) has exactly one push writer: either the upwind neighbour
// n−e_q, periodic wrap included, or n itself reflecting direction
// Opposite[q] off a bounce-back wall. StreamBC.Resolve(Opposite[q], n)
// classifies exactly that dichotomy from the pull side. It reports a
// bounce, with the Ladd lid term computed from n's own pre-update
// density just as the push side computes it from the same node, or else
// the wrapped coordinates of n+e_{Opposite[q]} = n−e_q, the upwind
// source. The rest slot q = 0 is its own source. No arithmetic differs,
// so an engine may stream in either direction and stay bitwise equal to
// the others; both directions stay because each is the faster one in the
// schedule that runs it (DESIGN.md §14).
type Streamer struct {
	l  Layout
	bc StreamBC
	at [3][]int
	// fixed[a][c] reports that both axis-a neighbours of coordinate c are
	// inside the domain and sit at the layout's constant axis stride from
	// it; where that holds on all three axes, the e_i neighbour of a node
	// is streamDelta[i] entries away — strictly inside a cube, and
	// everywhere off the domain faces in the slab grid, whose x-planes
	// abut in memory.
	fixed       [3][]bool
	streamDelta [lattice.Q]int
}

// NewStreamer tabulates l's index geometry for streaming under bc.
func NewStreamer(l Layout, bc StreamBC) *Streamer {
	s := &Streamer{l: l, bc: bc, at: grid.AxisIndex(l)}
	var stride [3]int
	for a, t := range s.at {
		s.fixed[a] = make([]bool, len(t))
		if len(t) > 1 {
			stride[a] = t[1] - t[0]
		}
		for c := 1; c < len(t)-1; c++ {
			s.fixed[a][c] = t[c]-t[c-1] == stride[a] && t[c+1]-t[c] == stride[a]
		}
	}
	for i := range s.streamDelta {
		e := lattice.E[i]
		s.streamDelta[i] = e[0]*stride[0] + e[1]*stride[1] + e[2]*stride[2]
	}
	return s
}

// Block pushes the post-collision distributions (buffer cur) of every
// node of block b to its 18 neighbours' post-streaming buffers, which may
// lie in other blocks. Each (node, direction) slot has exactly one
// writer, so concurrent calls on different blocks need no
// synchronization.
func (s *Streamer) Block(b, cur int) {
	src, dst, m := s.l.Dist(cur), s.l.Dist(1-cur), s.l.Macros()
	o, e := s.l.BlockBox(b)
	idx := b * e[0] * e[1] * e[2]
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			fixedXY := s.fixed[0][x] && s.fixed[1][y]
			for z := o[2]; z < o[2]+e[2]; z++ {
				f := &src[idx]
				if fixedXY && s.fixed[2][z] {
					for i := 0; i < lattice.Q; i++ {
						dst[idx+s.streamDelta[i]][i] = f[i]
					}
				} else {
					rho := m[idx].Rho
					for i := 0; i < lattice.Q; i++ {
						tx, ty, tz, refl, bounce := s.bc.Resolve(i, x, y, z, f[i], rho)
						if bounce {
							dst[idx][lattice.Opposite[i]] = refl
							continue
						}
						dst[s.at[0][tx]+s.at[1][ty]+s.at[2][tz]][i] = f[i]
					}
				}
				idx++
			}
		}
	}
}

// FinalizeBlock completes every node of block b from the upwind side:
// kernel 6 by pull, kernel 7, and the folded force reset. Each node
// gathers its 19 post-streaming values from the post-collision values of
// its upwind neighbours in src (see Streamer for why this equals Block's
// push) into dst, then recomputes its density and velocity from exactly
// those stored values and resets its force to body. src and dst may be
// stored in either element type: pulled values move without re-rounding,
// and a reflected bounce-back value is computed in float64 and rounded
// once on store. The node's own src values and those of all its upwind
// neighbours must be collided and stable; every write lands in the
// finalized node itself, so concurrent calls on different blocks need no
// synchronization.
func FinalizeBlock[T lattice.Float](s *Streamer, src, dst [][lattice.Q]T, b int, body [3]float64) {
	m := s.l.Macros()
	o, e := s.l.BlockBox(b)
	idx := b * e[0] * e[1] * e[2]
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			fixedXY := s.fixed[0][x] && s.fixed[1][y]
			for z := o[2]; z < o[2]+e[2]; z++ {
				n, g := &m[idx], &dst[idx]
				if fixedXY && s.fixed[2][z] {
					for q := 0; q < lattice.Q; q++ {
						g[q] = src[idx-s.streamDelta[q]][q]
					}
				} else {
					f := &src[idx]
					for q := 0; q < lattice.Q; q++ {
						oq := lattice.Opposite[q]
						tx, ty, tz, refl, bounce := s.bc.Resolve(oq, x, y, z, float64(f[oq]), n.Rho)
						if bounce {
							g[q] = T(refl)
						} else {
							g[q] = src[s.at[0][tx]+s.at[1][ty]+s.at[2][tz]][q]
						}
					}
				}
				n.Rho = lattice.Moments(g, n.Force, &n.Vel)
				n.Force = body
				idx++
			}
		}
	}
}

// ForFibers runs body over the global fiber range [lo, hi) — fibers are
// numbered across the structure's sheets in order — mapped onto (sheet,
// node-range) pieces: the fiber loops of Algorithm 3 generalized to a
// multi-sheet structure.
func ForFibers(sheets []*fiber.Sheet, lo, hi int, body func(sh *fiber.Sheet, nodeLo, nodeHi int)) {
	for g := lo; g < hi; {
		sh, f := fiber.Locate(sheets, g)
		// Extend to the run of fibers of this sheet inside [g, hi).
		run := sh.NumFibers - f
		if g+run > hi {
			run = hi - g
		}
		body(sh, f*sh.NodesPerFiber, (f+run)*sh.NodesPerFiber)
		g += run
	}
}

// SpreadSheetNodes is kernel 4's body: the elastic force of fiber nodes
// [lo, hi) of one sheet is spread into acc through the smoothed Dirac
// delta, in ascending node order.
func SpreadSheetNodes(acc ibm.ForceAccumulator, sh *fiber.Sheet, lo, hi int) {
	area := sh.AreaElement()
	for i := lo; i < hi; i++ {
		ibm.Spread(acc, sh.X[i], sh.Force[i], area)
	}
}

// MoveSheetNodes is kernel 8's body: fiber nodes [lo, hi) of one sheet
// are advected with the interpolated fluid velocity (explicit Euler).
func MoveSheetNodes(v ibm.VelocitySampler, sh *fiber.Sheet, lo, hi int) {
	for i := lo; i < hi; i++ {
		if sh.Fixed[i] {
			sh.Vel[i] = fiber.Vec3{}
			continue
		}
		u := ibm.Interpolate(v, sh.X[i])
		sh.Vel[i] = u
		sh.X[i][0] += u[0]
		sh.X[i][1] += u[1]
		sh.X[i][2] += u[2]
	}
}
