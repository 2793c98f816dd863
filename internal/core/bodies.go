package core

import (
	"fmt"
	"math/bits"
	"slices"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// Layout is the block-layout contract the loop bodies are written
// against; *grid.Grid and *cube.Layout are its two implementations. A
// layout stores the NX×NY×NZ fluid nodes split: one distribution array,
// Dist(), and one array of the 56 B grid.Macro record (u, ρ, F),
// Macros(), in the same node order — 208 B per node. The nodes form
// equal-sized contiguous blocks — an x-plane of NY·NZ nodes in the slab
// grid, a cube of K³ in the cube layout: block b is the box BlockBox(b)
// of the domain and occupies entries [b·n, (b+1)·n) of both arrays, n
// the box's node count, ordered z-fastest inside the box. Idx is
// separable per axis,
//
//	Idx(x, y, z) = Idx(x, 0, 0) + Idx(0, y, 0) + Idx(0, 0, z),
//
// which lets the bodies tabulate it once (grid.AxisIndex) and index the
// arrays directly in their inner loops instead of calling through the
// interface. Between steps an engine that streams in place may leave
// Dist() in the swapped phase (AABlock); the engine's Live method
// presents the natural one.
type Layout interface {
	Dims() (nx, ny, nz int)
	Dist() [][lattice.Q]float64
	Macros() []grid.Macro
	BlockBox(b int) (origin, extent [3]int)
	Idx(x, y, z int) int
	Wrap(x, y, z int) (int, int, int)
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
// momentum-exchange term (Ladd). Every engine reflects its wall links
// through the same Resolve body, and streams every other link by offsets
// NewStreamer tabulates from it — the sequential engine via
// Streamer.Block, the in-place engines via AABlock and AAMomentsBlock —
// so they cannot drift apart.
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
// refl, which belongs to the source node's post-streaming slot
// lattice.Opposite[q]; otherwise it returns the (periodically wrapped)
// target coordinates whose post-streaming slot q receives gi.
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
// of boundary conditions: one neighbour-offset table per axis class, the
// per-axis wall sets, and the boundary resolution. Block pushes through
// it into a second array (the sequential engine); AABlock, AAMomentsBlock
// and Canonicalize stream in place through it (the parallel engines).
// Every node of every layout finds its neighbours the same way: one
// lookup of its class triple, then its own entry plus the offset.
type Streamer struct {
	l  Layout
	bc StreamBC
	// cls[a][c] is the class of coordinate c on axis a, scaled so that a
	// node's three terms sum to its row of tab. Coordinates whose axis-a
	// neighbours at −1 and +1 lie at the same entry offsets share a class;
	// the offset of a move that crosses a wall counts as 0. So an axis has
	// at most five: the domain's low end, a block's low face, the block
	// interior, a block's high face and the domain's high end — three on
	// the slab grid, whose x-planes abut in memory.
	cls [3][]int
	// tab[(sign+1)/2][row][q] is the entry offset of the neighbour at
	// sign·e_q from a node of class triple row; it means nothing for a q
	// whose move crosses a wall.
	tab [2][][lattice.Q]int
	// walls[a][c] is the set of directions q (bit q) whose move from c
	// along axis a crosses a bounce-back wall: StreamBC.Resolve's answer
	// along one axis, tabulated. Resolve treats the axes independently,
	// so a node's e_q neighbour sits at its offset unless q is in the
	// union of the node's three wall sets — a wall link.
	walls [3][]uint32
}

// NewStreamer tabulates l's index geometry for streaming under bc.
func NewStreamer(l Layout, bc StreamBC) *Streamer {
	s := &Streamer{l: l, bc: bc}
	// off[a][k][1+e] is the axis-a offset at e ∈ {−1, 0, 1} of class k.
	var off [3][][3]int
	for a, t := range grid.AxisIndex(l) {
		s.cls[a] = make([]int, len(t))
		s.walls[a] = make([]uint32, len(t))
		for c := range t {
			var o [3]int
			for _, e := range [2]int{-1, 1} {
				var p, d [3]int
				p[a], d[a] = c, e
				tx, ty, tz, _, bounce := bc.Resolve(direction(d), p[0], p[1], p[2], 0, 0)
				if !bounce {
					o[1+e] = t[[3]int{tx, ty, tz}[a]] - t[c]
					continue
				}
				for q, eq := range lattice.E {
					if eq[a] == e {
						s.walls[a][c] |= 1 << q
					}
				}
			}
			k := slices.Index(off[a], o)
			if k < 0 {
				k = len(off[a])
				off[a] = append(off[a], o)
			}
			s.cls[a][c] = k
		}
	}
	ny, nz := len(off[1]), len(off[2])
	for c := range s.cls[0] {
		s.cls[0][c] *= ny * nz
	}
	for c := range s.cls[1] {
		s.cls[1][c] *= nz
	}
	for i, sign := range [2]int{-1, 1} {
		s.tab[i] = make([][lattice.Q]int, len(off[0])*ny*nz)
		for cx, ox := range off[0] {
			for cy, oy := range off[1] {
				for cz, oz := range off[2] {
					d := &s.tab[i][(cx*ny+cy)*nz+cz]
					for q, e := range lattice.E {
						d[q] = ox[1+sign*e[0]] + oy[1+sign*e[1]] + oz[1+sign*e[2]]
					}
				}
			}
		}
	}
	return s
}

// direction returns the lattice direction with velocity d.
func direction(d [3]int) int {
	for q, e := range lattice.E {
		if e == d {
			return q
		}
	}
	panic(fmt.Sprintf("core: no D3Q19 direction %v", d))
}

// Block pushes the post-collision distributions of every node of block b
// from the layout's array to its 18 neighbours' slots in the
// post-streaming array dst, which may lie in other blocks; a wall link
// takes StreamBC.Resolve's reflection into the node's own slot. Each
// (node, direction) slot has exactly one writer, so concurrent calls on
// different blocks need no synchronization.
func (s *Streamer) Block(b int, dst [][lattice.Q]float64) {
	src, m := s.l.Dist(), s.l.Macros()
	o, e := s.l.BlockBox(b)
	idx := b * e[0] * e[1] * e[2]
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			row := s.row(x, y, +1)
			for z := o[2]; z < o[2]+e[2]; z++ {
				f, d := &src[idx], s.links(&row, z)
				walls := row.walls | s.walls[2][z]
				for q := 0; q < lattice.Q; q++ {
					if walls&(1<<q) != 0 {
						_, _, _, refl, _ := s.bc.Resolve(q, x, y, z, f[q], m[idx].Rho)
						dst[idx][lattice.Opposite[q]] = refl
						continue
					}
					dst[idx+d[q]][q] = f[q]
				}
				idx++
			}
		}
	}
}

// AABlock is kernels 5 and 6 of every node of block b in one pass over a
// single distribution array df, streaming in place by the AA pattern.
// swapped is the array's phase when the body runs; once every block has
// run, the array is in the other phase:
//
//   - Natural (swapped false): node n's value f_q(n) is at slot (n, q).
//     The body collides the node's 19 values in place (lattice.Collide)
//     and trades the values of each opposite pair, which stores value q
//     at (n, Opposite[q]). On a wall link — n+e_q beyond a bounce-back
//     wall — that slot takes the reflected value instead, lid term
//     included.
//   - Swapped: value Opposite[q] of node n is at L_q, the slot direction
//     q of the node owns: (n+e_q, q) in the interior, periodic wrap
//     included, and (n, Opposite[q]) on a wall link. The body gathers it
//     from there, collides, and stores value q back into L_q; a wall
//     slot takes the reflected value, lid term included.
//
// The two phases are the same streaming as collide → Streamer.Block →
// a copy back, slot by slot. After a natural step the post-streaming
// f'_q(n) sits at (n−e_q, Opposite[q]), or at (n, q) on a wall link
// (AAMomentsBlock gathers it from there, Canonicalize moves it home);
// after a swapped step it sits at (n, q). A reflection is computed by
// StreamBC.Resolve from n's own density before this step's update, as
// Block computes it, so no arithmetic differs and every engine stays
// bitwise equal to the sequential one.
//
// Why the blocks may run in any order, concurrently, with no barrier
// between them: in either phase the slots a node reads are exactly the
// slots it writes — its own 19 when natural, its 19 L_q when swapped —
// and no two nodes share a slot. (n+e_q, q) is owned by n alone, since
// only n reaches it through direction q without crossing a wall, and a
// wall slot (n, Opposite[q]) is reached by no neighbour, since the
// neighbour it would come from lies beyond the wall. What does need an
// ordering is the moments body: it reads neighbours' slots, so it waits
// until every block around its own has run.
//
// df may be stored in either element type (lattice.Collide's rule): a
// moved value is not re-rounded, and a reflected one is computed in
// float64 from the stored post-collision value and rounded once on
// store, as the fused engine's float32 storage always did.
//
// The loops walk a node's values pair by pair, (q, q+1) for odd q,
// which is lattice.Opposite's pairing, so a node without a wall link
// never indexes Opposite, and Resolve runs for wall links only.
func AABlock[T lattice.Float](s *Streamer, df [][lattice.Q]T, b int, tau float64, swapped bool) {
	m := s.l.Macros()
	o, e := s.l.BlockBox(b)
	idx := b * e[0] * e[1] * e[2]
	// Scratch for one node, declared once so no node pays to zero it.
	var g [lattice.Q]T
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			row := s.row(x, y, +1)
			for z := o[2]; z < o[2]+e[2]; z++ {
				r := &m[idx]
				walls := row.walls | s.walls[2][z]
				if !swapped {
					// Collide in place and trade each pair's values, which
					// stores value q at Opposite[q]; then a wall link's
					// slot takes the reflection of the value it holds.
					f := &df[idx]
					lattice.Collide(f, r.Rho, r.Vel, r.Force, tau)
					for q := 1; q < lattice.Q-1; q += 2 {
						f[q], f[q+1] = f[q+1], f[q]
					}
					for w := walls; w != 0; w &= w - 1 {
						q := bits.TrailingZeros32(w)
						oq := lattice.Opposite[q]
						_, _, _, refl, _ := s.bc.Resolve(q, x, y, z, float64(f[oq]), r.Rho)
						f[oq] = T(refl)
					}
					idx++
					continue
				}
				d := s.links(&row, z)
				if walls == 0 {
					g[0] = df[idx][0]
					for q := 1; q < lattice.Q-1; q += 2 {
						g[q+1], g[q] = df[idx+d[q]][q], df[idx+d[q+1]][q+1]
					}
					lattice.Collide(&g, r.Rho, r.Vel, r.Force, tau)
					df[idx][0] = g[0]
					for q := 1; q < lattice.Q-1; q += 2 {
						df[idx+d[q]][q], df[idx+d[q+1]][q+1] = g[q], g[q+1]
					}
				} else {
					for q := 0; q < lattice.Q; q++ {
						if oq := lattice.Opposite[q]; walls&(1<<q) != 0 {
							g[oq] = df[idx][oq]
						} else {
							g[oq] = df[idx+d[q]][q]
						}
					}
					lattice.Collide(&g, r.Rho, r.Vel, r.Force, tau)
					for q := 0; q < lattice.Q; q++ {
						if walls&(1<<q) != 0 {
							_, _, _, refl, _ := s.bc.Resolve(q, x, y, z, float64(g[q]), r.Rho)
							df[idx][lattice.Opposite[q]] = T(refl)
						} else {
							df[idx+d[q]][q] = g[q]
						}
					}
				}
				idx++
			}
		}
	}
}

// rowLinks is the part of a row's links that x and y decide: their wall
// sets, and the rows of the sign table their class pair selects, of which
// z's class picks one.
type rowLinks struct {
	walls uint32
	tab   [][lattice.Q]int
}

// row tabulates the links of row (x, y) towards sign·e_q.
func (s *Streamer) row(x, y, sign int) rowLinks {
	return rowLinks{walls: s.walls[0][x] | s.walls[1][y], tab: s.tab[(sign+1)/2][s.cls[0][x]+s.cls[1][y]:]}
}

// links returns the entry offsets of the neighbours at sign·e_q of the
// node at z in row r, from the node's own entry. An offset means nothing
// for a q whose move crosses a wall.
func (s *Streamer) links(r *rowLinks, z int) *[lattice.Q]int { return &r.tab[s.cls[2][z]] }

// AAMomentsBlock is kernel 7 of every node of block b after AABlock:
// each node's density and velocity from its post-streaming values, then,
// with a non-nil reset, UpdateRange's folded force reset. swapped is the
// array's phase when the body runs, the phase AABlock left. Swapped, the
// node gathers f_q(n) from (n−e_q, Opposite[q]), or from its own slot
// (n, q) on a wall link; natural, it reads its own slots, which is
// UpdateRange. Either way every block around b must have run AABlock
// first, and the body writes only its own records.
func AAMomentsBlock[T lattice.Float](s *Streamer, df [][lattice.Q]T, b int, swapped bool, reset *[3]float64) {
	m := s.l.Macros()
	o, e := s.l.BlockBox(b)
	n := e[0] * e[1] * e[2]
	idx := b * n
	if !swapped {
		UpdateRange(df[idx:idx+n], m[idx:idx+n], reset)
		return
	}
	var g [lattice.Q]T
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			row := s.row(x, y, -1)
			for z := o[2]; z < o[2]+e[2]; z++ {
				d := s.links(&row, z)
				if walls := row.walls | s.walls[2][z]; walls == 0 {
					g[0] = df[idx][0]
					for q := 1; q < lattice.Q-1; q += 2 {
						g[q], g[q+1] = df[idx+d[q]][q+1], df[idx+d[q+1]][q]
					}
				} else {
					// The source n−e_q lies beyond a wall exactly when
					// Opposite[q] is a wall link of n.
					for q := 0; q < lattice.Q; q++ {
						if oq := lattice.Opposite[q]; walls&(1<<oq) != 0 {
							g[q] = df[idx][q]
						} else {
							g[q] = df[idx+d[q]][oq]
						}
					}
				}
				r := &m[idx]
				r.Rho = lattice.Moments(&g, r.Force, &r.Vel)
				if reset != nil {
					r.Force = *reset
				}
				idx++
			}
		}
	}
}

// Canonicalize turns a swapped array df into the natural one in place,
// between steps: the post-streaming f'_q(n), which a natural step left at
// (n−e_q, Opposite[q]), trades places with f'_{Opposite[q]}(n−e_q), which
// sits at (n, q). The trade is an involution, so each pair is swapped
// once, from its member with q < Opposite[q]; a wall slot is its own
// pair and stays where it is. The rest value never moves. The pairs are
// disjoint, so the nodes are visited block by block, in memory order.
func Canonicalize[T lattice.Float](s *Streamer, df [][lattice.Q]T) {
	_, e := s.l.BlockBox(0)
	n := e[0] * e[1] * e[2]
	for b := 0; b*n < len(df); b++ {
		o, _ := s.l.BlockBox(b)
		i := b * n
		for x := o[0]; x < o[0]+e[0]; x++ {
			for y := o[1]; y < o[1]+e[1]; y++ {
				row := s.row(x, y, -1)
				for z := o[2]; z < o[2]+e[2]; z++ {
					d, walls := s.links(&row, z), row.walls|s.walls[2][z]
					for q := 1; q < lattice.Q-1; q += 2 {
						// The pair of (n, q) is (n−e_q, Opposite[q]), a wall
						// slot when n−e_q lies beyond a wall.
						if walls&(1<<(q+1)) == 0 {
							k := i + d[q]
							df[i][q], df[k][q+1] = df[k][q+1], df[i][q]
						}
					}
					i++
				}
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

// SpreadBox is kernel 4's body over the fluid box b of c: the elastic
// force of every fiber node of every sheet, in global node order, is
// spread through the smoothed Dirac delta onto the points of its stencil
// that lie in b. Sequential runs it once with the whole-domain box; a
// parallel engine runs it on every thread with the box the thread owns,
// the boxes partitioning the domain.
//
// That is why every float64 engine's force field, and so its whole
// trajectory, equals Sequential's bit for bit at any thread count. A
// fluid node's force is the body force plus one rounded product
// float64(F·w) per (fiber node, stencil point) pair that lands on it,
// added in turn. The node's owner walks the fiber nodes in Sequential's
// global order and each stencil in its (i, j, k) order, computes every
// weight from the same stencil by the same arithmetic, and leaves out
// only pairs whose point lies outside its box — none of which land on
// the node. So the node receives the same additions in the same order,
// and nobody else writes it: no private buffer, reduction or lock. A
// fiber node whose stencil misses b altogether is skipped on one floor
// per axis and a test of its window against b (grid.Coupling.SpreadNode),
// before any weight is computed.
func SpreadBox(c *grid.Coupling, sheets []*fiber.Sheet, b grid.Box) {
	for _, sh := range sheets {
		area := sh.AreaElement()
		for i := range sh.X {
			c.SpreadNode(sh.X[i], sh.Force[i], area, &b)
		}
	}
}

// MoveSheetNodes is kernel 8's body: fiber nodes [lo, hi) of one sheet
// are advected with the fluid velocity c interpolates (explicit Euler).
func MoveSheetNodes(c *grid.Coupling, sh *fiber.Sheet, lo, hi int) {
	for i := lo; i < hi; i++ {
		if sh.Fixed[i] {
			sh.Vel[i] = fiber.Vec3{}
			continue
		}
		u := c.Interpolate(sh.X[i])
		sh.Vel[i] = u
		sh.X[i][0] += u[0]
		sh.X[i][1] += u[1]
		sh.X[i][2] += u[2]
	}
}
