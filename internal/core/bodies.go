package core

import (
	"fmt"
	"math/bits"
	"slices"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/ibm"
	"lbmib/internal/lattice"
)

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
// m of the same nodes, four nodes per call of the node kernel.
func CollideRange(df [][lattice.Q]float64, m []grid.Macro, tau float64) {
	df = df[:len(m)]
	for i := 0; i < len(m); i += lattice.Lanes {
		j := min(i+lattice.Lanes, len(m))
		lattice.CollideGroup(df[i:j], m[i:j], nil, nil, tau, false, nil)
	}
}

// UpdateRange is kernel 7 over a node range: density and velocity from
// the post-streaming distributions df and the elastic force (half-force
// Guo correction), into the records m. A non-nil reset is then stored as
// the node's force in the same pass — the fold that lets the engines which
// retire kernel 4's full-grid reset keep spreading on top of the body
// force.
func UpdateRange(df [][lattice.Q]float64, m []grid.Macro, reset *[3]float64) {
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

// Streamer is kernel 6's stream geometry bound to one grid and one set
// of boundary conditions: one neighbour-offset table per axis class, the
// per-axis wall sets, and the boundary resolution. Block pushes through
// it into a second array (the sequential engine); AABlock, AAMomentsBlock
// and Canonicalize stream in place through it (the parallel engines).
// Every node of every block extent finds its neighbours the same way: one
// lookup of its class triple, then its own entry plus the offset.
type Streamer struct {
	l  *grid.Grid
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
func NewStreamer(l *grid.Grid, bc StreamBC) *Streamer {
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
// from the grid's array to its 18 neighbours' slots in the
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
				if walls := row.walls | s.walls[2][z]; walls == 0 {
					dst[idx][0] = f[0]
					dst[idx+d[1]][1], dst[idx+d[2]][2] = f[1], f[2]
					dst[idx+d[3]][3], dst[idx+d[4]][4] = f[3], f[4]
					dst[idx+d[5]][5], dst[idx+d[6]][6] = f[5], f[6]
					dst[idx+d[7]][7], dst[idx+d[8]][8] = f[7], f[8]
					dst[idx+d[9]][9], dst[idx+d[10]][10] = f[9], f[10]
					dst[idx+d[11]][11], dst[idx+d[12]][12] = f[11], f[12]
					dst[idx+d[13]][13], dst[idx+d[14]][14] = f[13], f[14]
					dst[idx+d[15]][15], dst[idx+d[16]][16] = f[15], f[16]
					dst[idx+d[17]][17], dst[idx+d[18]][18] = f[17], f[18]
				} else {
					for q := 0; q < lattice.Q; q++ {
						if walls&(1<<q) != 0 {
							_, _, _, refl, _ := s.bc.Resolve(q, x, y, z, f[q], m[idx].Rho)
							dst[idx][lattice.Opposite[q]] = refl
							continue
						}
						dst[idx+d[q]][q] = f[q]
					}
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
//     The body collides the node's 19 values in place and trades the
//     values of each opposite pair, which stores value q at
//     (n, Opposite[q]) (CollideGroup's trade). On a wall link — n+e_q beyond a
//     bounce-back wall — that slot takes the reflected value instead,
//     lid term included.
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
// The density and velocity a node collides with come from its record,
// or, with a non-nil fold, from the 19 values the body has just loaded:
// lattice.Moments of them under the force *fold, which must be the
// force the step that produced them ran with. That is kernel 7 of the
// previous step folded into this collide — the same function of the
// same values in the same order, so the same bits as the record the
// moments pass would have written (the fold; DESIGN.md §5). The force a
// node collides with is its record's, or *force if force is non-nil.
// With both non-nil the body never reads or writes a record.
//
// With a non-nil dg the sweep also digests the state it is about to
// overwrite: each node's density and velocity — its record's when the
// block is fresh, the fold's when it is stale, the same bits either way —
// go into dg's slots for the block (grid.DigestRow), in z order, which
// the body clears first and which no other block shares. That is the
// per-step digest without a pass of its own (DESIGN.md §12).
//
// Why the blocks may run in any order, concurrently, with no barrier
// between them: in either phase the slots a node reads are exactly the
// slots it writes — its own 19 when natural, its 19 L_q when swapped —
// and no two nodes share a slot. (n+e_q, q) is owned by n alone, since
// only n reaches it through direction q without crossing a wall, and a
// wall slot (n, Opposite[q]) is reached by no neighbour, since the
// neighbour it would come from lies beyond the wall. What does need an
// ordering is the moments body: it reads neighbours' slots, so it waits
// until every block around its own has run. The same argument lets the
// body take the nodes of a z-row in groups of lattice.Lanes, one call of
// the node kernel each (lattice.CollideGroup), a row's last group short:
// natural, the group's nodes are consecutive entries, collided and
// traded in place; swapped, each node's gather fills one node of a
// scratch group, the group collides, and each node scatters its values.
// A node's wall links are resolved by itself after the call, with the
// density the kernel reports it collided with.
//
// A node without a wall link — nearly every node — moves its values in
// straight-line code, pair by pair, (q, q+1) for odd q, which is
// lattice.Opposite's pairing: every slot index is a constant, so the only
// per-value work is the neighbour's offset and its bounds check, not a
// loop counter, an Opposite lookup or a variable slot. It moves the same
// values to the same slots in the same order as the per-link loop a wall
// node keeps, so no bit depends on which path a node took; Resolve runs
// for wall links only. Streamer.Block, AAMomentsBlock and Canonicalize
// are written the same way.
func AABlock(s *Streamer, df [][lattice.Q]float64, b int, tau float64, swapped bool, fold, force *[3]float64, dg *grid.DigestGrid) {
	m := s.l.Macros()
	o, e := s.l.BlockBox(b)
	idx := b * e[0] * e[1] * e[2]
	var obs grid.DigestRow
	if dg != nil {
		dg.ClearSlots(o, e)
	}
	// The group's densities and velocities, as the kernel collided them,
	// and the swapped phase's scratch group, declared once so no group
	// pays to zero them.
	var st [lattice.Lanes]lattice.State
	var g [lattice.Lanes][lattice.Q]float64
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			row := s.row(x, y, +1)
			if dg != nil {
				obs = dg.Row(x, y)
			}
			for z0 := o[2]; z0 < o[2]+e[2]; z0 += lattice.Lanes {
				n := min(lattice.Lanes, o[2]+e[2]-z0)
				if !swapped {
					// Collide in place and trade each pair's values, which
					// stores value q at Opposite[q]; then a wall link's
					// slot takes the reflection of the value it holds.
					lattice.CollideGroup(df[idx:idx+n], m[idx:idx+n], fold, force, tau, true, &st)
					for k := 0; k < n; k++ {
						z := z0 + k
						f := &df[idx+k]
						for w := row.walls | s.walls[2][z]; w != 0; w &= w - 1 {
							q := bits.TrailingZeros32(w)
							oq := lattice.Opposite[q]
							_, _, _, refl, _ := s.bc.Resolve(q, x, y, z, f[oq], st[k].Rho)
							f[oq] = refl
						}
					}
				} else {
					for k := 0; k < n; k++ {
						i, d, h := idx+k, s.links(&row, z0+k), &g[k]
						if walls := row.walls | s.walls[2][z0+k]; walls == 0 {
							h[0] = df[i][0]
							h[2], h[1] = df[i+d[1]][1], df[i+d[2]][2]
							h[4], h[3] = df[i+d[3]][3], df[i+d[4]][4]
							h[6], h[5] = df[i+d[5]][5], df[i+d[6]][6]
							h[8], h[7] = df[i+d[7]][7], df[i+d[8]][8]
							h[10], h[9] = df[i+d[9]][9], df[i+d[10]][10]
							h[12], h[11] = df[i+d[11]][11], df[i+d[12]][12]
							h[14], h[13] = df[i+d[13]][13], df[i+d[14]][14]
							h[16], h[15] = df[i+d[15]][15], df[i+d[16]][16]
							h[18], h[17] = df[i+d[17]][17], df[i+d[18]][18]
						} else {
							s.gatherWalls(df, i, walls, d, h)
						}
					}
					lattice.CollideGroup(g[:n], m[idx:idx+n], fold, force, tau, false, &st)
					for k := 0; k < n; k++ {
						z := z0 + k
						i, d, h := idx+k, s.links(&row, z), &g[k]
						if walls := row.walls | s.walls[2][z]; walls == 0 {
							df[i][0] = h[0]
							df[i+d[1]][1], df[i+d[2]][2] = h[1], h[2]
							df[i+d[3]][3], df[i+d[4]][4] = h[3], h[4]
							df[i+d[5]][5], df[i+d[6]][6] = h[5], h[6]
							df[i+d[7]][7], df[i+d[8]][8] = h[7], h[8]
							df[i+d[9]][9], df[i+d[10]][10] = h[9], h[10]
							df[i+d[11]][11], df[i+d[12]][12] = h[11], h[12]
							df[i+d[13]][13], df[i+d[14]][14] = h[13], h[14]
							df[i+d[15]][15], df[i+d[16]][16] = h[15], h[16]
							df[i+d[17]][17], df[i+d[18]][18] = h[17], h[18]
						} else {
							s.scatterWalls(df, i, walls, d, h, x, y, z, st[k].Rho)
						}
					}
				}
				if dg != nil {
					for k := 0; k < n; k++ {
						obs.Add(z0+k, st[k].Rho, &st[k].U)
					}
				}
				idx += n
			}
		}
	}
}

// gatherWalls loads into g the values a swapped AABlock collides at
// node i, which has the wall links walls and its neighbours at offsets
// d: value Opposite[q] from L_q, (i+d[q], q), or from (i, Opposite[q])
// on a wall link.
func (s *Streamer) gatherWalls(df [][lattice.Q]float64, i int, walls uint32, d *[lattice.Q]int, g *[lattice.Q]float64) {
	for q := 0; q < lattice.Q; q++ {
		if oq := lattice.Opposite[q]; walls&(1<<q) != 0 {
			g[oq] = df[i][oq]
		} else {
			g[oq] = df[i+d[q]][q]
		}
	}
}

// scatterWalls stores the collided values g of node (x, y, z), entry i,
// back into the slots gatherWalls read: value q into L_q, or, on a wall
// link, its reflection off the wall with the node's density rho into
// (i, Opposite[q]).
func (s *Streamer) scatterWalls(df [][lattice.Q]float64, i int, walls uint32, d *[lattice.Q]int, g *[lattice.Q]float64, x, y, z int, rho float64) {
	for q := 0; q < lattice.Q; q++ {
		if walls&(1<<q) != 0 {
			_, _, _, refl, _ := s.bc.Resolve(q, x, y, z, g[q], rho)
			df[i][lattice.Opposite[q]] = refl
		} else {
			df[i+d[q]][q] = g[q]
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
func AAMomentsBlock(s *Streamer, df [][lattice.Q]float64, b int, swapped bool, reset *[3]float64) {
	m := s.l.Macros()
	o, e := s.l.BlockBox(b)
	n := e[0] * e[1] * e[2]
	idx := b * n
	if !swapped {
		UpdateRange(df[idx:idx+n], m[idx:idx+n], reset)
		return
	}
	var g [lattice.Q]float64
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			row := s.row(x, y, -1)
			for z := o[2]; z < o[2]+e[2]; z++ {
				d := s.links(&row, z)
				if walls := row.walls | s.walls[2][z]; walls == 0 {
					g[0] = df[idx][0]
					g[1], g[2] = df[idx+d[1]][2], df[idx+d[2]][1]
					g[3], g[4] = df[idx+d[3]][4], df[idx+d[4]][3]
					g[5], g[6] = df[idx+d[5]][6], df[idx+d[6]][5]
					g[7], g[8] = df[idx+d[7]][8], df[idx+d[8]][7]
					g[9], g[10] = df[idx+d[9]][10], df[idx+d[10]][9]
					g[11], g[12] = df[idx+d[11]][12], df[idx+d[12]][11]
					g[13], g[14] = df[idx+d[13]][14], df[idx+d[14]][13]
					g[15], g[16] = df[idx+d[15]][16], df[idx+d[16]][15]
					g[17], g[18] = df[idx+d[17]][18], df[idx+d[18]][17]
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

// CanonicalizeBlocks turns the nodes of blocks [lo, hi) of a swapped
// array df natural in place, between steps: the post-streaming f'_q(n),
// which a natural step left at (n−e_q, Opposite[q]), trades places with
// f'_{Opposite[q]}(n−e_q), which sits at (n, q). The trade is an
// involution, so each pair is swapped once, from its member with
// q < Opposite[q]; a wall slot is its own pair and stays where it is.
// The rest value never moves. Each node swaps the pairs whose member
// with q < Opposite[q] it holds, and every slot belongs to exactly one
// pair, so ranges that partition the blocks may run concurrently, and
// leave the whole array natural once all have run; within a range the
// nodes are visited block by block, in memory order.
func CanonicalizeBlocks(s *Streamer, df [][lattice.Q]float64, lo, hi int) {
	_, e := s.l.BlockBox(0)
	n := e[0] * e[1] * e[2]
	for b := lo; b < hi; b++ {
		o, _ := s.l.BlockBox(b)
		i := b * n
		for x := o[0]; x < o[0]+e[0]; x++ {
			for y := o[1]; y < o[1]+e[1]; y++ {
				row := s.row(x, y, -1)
				for z := o[2]; z < o[2]+e[2]; z++ {
					d := s.links(&row, z)
					if walls := row.walls | s.walls[2][z]; walls == 0 {
						df[i][1], df[i+d[1]][2] = df[i+d[1]][2], df[i][1]
						df[i][3], df[i+d[3]][4] = df[i+d[3]][4], df[i][3]
						df[i][5], df[i+d[5]][6] = df[i+d[5]][6], df[i][5]
						df[i][7], df[i+d[7]][8] = df[i+d[7]][8], df[i][7]
						df[i][9], df[i+d[9]][10] = df[i+d[9]][10], df[i][9]
						df[i][11], df[i+d[11]][12] = df[i+d[11]][12], df[i][11]
						df[i][13], df[i+d[13]][14] = df[i+d[13]][14], df[i][13]
						df[i][15], df[i+d[15]][16] = df[i+d[15]][16], df[i][15]
						df[i][17], df[i+d[17]][18] = df[i+d[17]][18], df[i][17]
					} else {
						for q := 1; q < lattice.Q-1; q += 2 {
							// The pair of (n, q) is (n−e_q, Opposite[q]), a
							// wall slot when n−e_q lies beyond a wall.
							if walls&(1<<(q+1)) == 0 {
								k := i + d[q]
								df[i][q], df[k][q+1] = df[k][q+1], df[i][q]
							}
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
//
// A non-nil reach is the step's support in an in-place engine (Support):
// every block of b that a stencil reaches is marked in it, by b's owner
// alone (grid.Marker).
func SpreadBox(c *grid.Coupling, sheets []*fiber.Sheet, b grid.Box, reach []bool) {
	var m *grid.Marker
	if reach != nil {
		m = &grid.Marker{Reach: reach}
	}
	var st ibm.Stencil
	for _, sh := range sheets {
		area := sh.AreaElement()
		for i := range sh.X {
			c.SpreadNode(sh.X[i], sh.Force[i], area, &b, m, &st)
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
