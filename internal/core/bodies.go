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
// forcing, in place on the present distributions of the nodes at entries
// lo … lo+len(m)−1 of the direction-major array df of stride stride
// (grid.Grid.Stride), reading their records m, four nodes per call of
// the node kernel, each node through its own slots (lattice.Natural).
func CollideRange(df []float64, stride, lo int, m []grid.Macro, tau float64) {
	nat := lattice.Natural(stride)
	grp := lattice.Uniform(&nat, &nat)
	for i := 0; i < len(m); i += lattice.Lanes {
		j := min(i+lattice.Lanes, len(m))
		lattice.CollideGroup(df, lo+i, j-i, &grp, m[i:j], nil, nil, tau, nil)
	}
}

// UpdateRange is kernel 7 over a node range: density and velocity from
// the post-streaming distributions of the nodes at entries lo …
// lo+len(m)−1 of the direction-major array df of stride stride and the
// elastic force (half-force Guo correction), into their records m. A
// non-nil reset is then stored as the node's force in the same pass —
// the fold that lets the engines which retire kernel 4's full-grid reset
// keep spreading on top of the body force.
func UpdateRange(df []float64, stride, lo int, m []grid.Macro, reset *[3]float64) {
	var g [lattice.Q]float64
	for i := range m {
		for q := range g {
			g[q] = df[q*stride+lo+i]
		}
		r := &m[i]
		r.Rho = lattice.Moments(&g, r.Force, &r.Vel)
		if reset != nil {
			r.Force = *reset
		}
	}
}

// CopyRange is kernel 9 over the node range [lo, hi) as published: the
// post-streaming distributions src are copied into the present ones
// dst, direction by direction, both arrays of stride stride.
func CopyRange(dst, src []float64, stride, lo, hi int) {
	for q := 0; q < lattice.Q; q++ {
		copy(dst[q*stride+lo:q*stride+hi], src[q*stride+lo:q*stride+hi])
	}
}

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
// of boundary conditions: one neighbour-offset table per class triple,
// the per-axis wall sets, and the boundary resolution. Block pushes
// through it into a second array (the sequential engine); AABlock,
// AAMomentsBlock and Canonicalize stream in place through it (the
// parallel engines). Every node of every block extent finds its
// neighbours the same way: one lookup of its class triple, then its own
// entry plus the offset.
//
// The grid's array is direction-major (grid.Grid.Slot): value q of the
// node at entry e is element q·S + e, S the grid's stride. So besides
// the neighbour offsets the streamer tabulates, per class triple, where
// the in-place bodies find and leave each value, as lattice.Offsets
// counted from the node's own entry: the swapped phase's load and store
// tables of AABlock and the gather of AAMomentsBlock. The natural phase
// needs no class: every node loads its own slots and stores each value
// at its opposite's, one pair of tables for the whole grid.
type Streamer struct {
	l  *grid.Grid
	bc StreamBC
	// stride is the grid's array's distance between two directions
	// (grid.Grid.Stride).
	stride int
	// cls[a][c] is the class of coordinate c on axis a, scaled so that a
	// node's three terms sum to its class triple's index. Coordinates
	// whose axis-a neighbours at −1 and +1 lie at the same entry offsets,
	// and whose moves along a cross the same walls, share a class; the
	// offset of a move that crosses a wall counts as 0. So an axis has at
	// most five: the domain's low end, a block's low face, the block
	// interior, a block's high face and the domain's high end — three on
	// the slab grid, whose x-planes abut in memory. A node's wall set is
	// a function of its class triple.
	cls [3][]int
	// tab[(sign+1)/2][c][q] is the entry offset of the neighbour at
	// sign·e_q from a node of class triple c; it means nothing for a q
	// whose move crosses a wall.
	tab [2][][lattice.Q]int
	// walls[a][c] is the set of directions q (bit q) whose move from c
	// along axis a crosses a bounce-back wall: StreamBC.Resolve's answer
	// along one axis, tabulated. Resolve treats the axes independently,
	// so a node's e_q neighbour sits at its offset unless q is in the
	// union of the node's three wall sets — a wall link.
	walls [3][]uint32
	// swap[c] is where a node of class triple c loads and stores its
	// values in a swapped AABlock; pull[c] is where AAMomentsBlock finds
	// its post-streaming values after a natural one.
	swap []swapTables
	pull []lattice.Offsets
	// natural is every node's group in a natural AABlock: its own slots
	// in, each value to its opposite's slot out.
	natLoad, natStore lattice.Offsets
	natural           lattice.Group
}

// swapTables are the slots of a swapped AABlock for one class triple:
// value Opposite[q] loads from L_q and value q stores into it, L_q being
// (n+e_q, q), or (n, Opposite[q]) on a wall link.
type swapTables struct {
	load, store lattice.Offsets
}

// axisClass is what makes a coordinate's class: the entry offsets of
// its neighbours at −1, 0 and +1 along the axis, and its wall set.
type axisClass struct {
	off   [3]int
	walls uint32
}

// NewStreamer tabulates l's index geometry for streaming under bc.
func NewStreamer(l *grid.Grid, bc StreamBC) *Streamer {
	s := &Streamer{l: l, bc: bc, stride: l.Stride()}
	var classes [3][]axisClass
	for a, t := range grid.AxisIndex(l) {
		s.cls[a] = make([]int, len(t))
		s.walls[a] = make([]uint32, len(t))
		for c := range t {
			var k axisClass
			for _, e := range [2]int{-1, 1} {
				var p, d [3]int
				p[a], d[a] = c, e
				tx, ty, tz, _, bounce := bc.Resolve(direction(d), p[0], p[1], p[2], 0, 0)
				if !bounce {
					k.off[1+e] = t[[3]int{tx, ty, tz}[a]] - t[c]
					continue
				}
				for q, eq := range lattice.E {
					if eq[a] == e {
						k.walls |= 1 << q
					}
				}
			}
			s.walls[a][c] = k.walls
			i := slices.Index(classes[a], k)
			if i < 0 {
				i = len(classes[a])
				classes[a] = append(classes[a], k)
			}
			s.cls[a][c] = i
		}
	}
	ny, nz := len(classes[1]), len(classes[2])
	for c := range s.cls[0] {
		s.cls[0][c] *= ny * nz
	}
	for c := range s.cls[1] {
		s.cls[1][c] *= nz
	}
	rows := len(classes[0]) * ny * nz
	s.tab = [2][][lattice.Q]int{make([][lattice.Q]int, rows), make([][lattice.Q]int, rows)}
	s.swap, s.pull = make([]swapTables, rows), make([]lattice.Offsets, rows)
	for cx, kx := range classes[0] {
		for cy, ky := range classes[1] {
			for cz, kz := range classes[2] {
				c := (cx*ny+cy)*nz + cz
				walls := kx.walls | ky.walls | kz.walls
				for i, sign := range [2]int{-1, 1} {
					for q, e := range lattice.E {
						s.tab[i][c][q] = kx.off[1+sign*e[0]] + ky.off[1+sign*e[1]] + kz.off[1+sign*e[2]]
					}
				}
				s.tables(c, walls)
			}
		}
	}
	s.natLoad, s.natStore = lattice.Natural(s.stride), lattice.Traded(s.stride)
	s.natural = lattice.Uniform(&s.natLoad, &s.natStore)
	return s
}

// tables fills the swapped phase's slot tables and the moments gather of
// class triple c, whose wall set is walls, from its neighbour offsets.
func (s *Streamer) tables(c int, walls uint32) {
	push, pull := &s.tab[1][c], &s.tab[0][c]
	sw := &s.swap[c]
	for q := range lattice.E {
		oq := lattice.Opposite[q]
		if walls&(1<<q) != 0 {
			sw.load[oq], sw.store[q] = oq*s.stride, oq*s.stride
		} else {
			sw.load[oq], sw.store[q] = q*s.stride+push[q], q*s.stride+push[q]
		}
		// The source n−e_q lies beyond a wall exactly when Opposite[q]
		// is a wall link of n; then f'_q(n) stayed in its own slot.
		if walls&(1<<oq) != 0 {
			s.pull[c][q] = q * s.stride
		} else {
			s.pull[c][q] = oq*s.stride + pull[q]
		}
	}
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

// row is the part of a node's class triple that x and y decide: the index
// its z class is added to, and their wall sets.
type row struct {
	walls uint32
	at    int
}

// row returns the row of (x, y).
func (s *Streamer) row(x, y int) row {
	return row{walls: s.walls[0][x] | s.walls[1][y], at: s.cls[0][x] + s.cls[1][y]}
}

// run returns the end of the run of nodes of row r from z on, below end,
// that share z's class triple, and that triple's index and wall set.
// The bodies that move whole runs take a row run by run.
func (s *Streamer) run(r row, z, end int) (next, c int, walls uint32) {
	cz := s.cls[2][z]
	next = z + 1
	for next < end && s.cls[2][next] == cz {
		next++
	}
	return next, r.at + cz, r.walls | s.walls[2][z]
}

// Block pushes the post-collision distributions of every node of block b
// from the grid's array to its 18 neighbours' slots in the
// post-streaming array dst, which may lie in other blocks; a wall link
// takes StreamBC.Resolve's reflection into the node's own slot. Each
// (node, direction) slot has exactly one writer, so concurrent calls on
// different blocks need no synchronization.
//
// The nodes of a row go run by run, a run being consecutive nodes of one
// class triple: they share their neighbour offsets and their wall set,
// so in the direction-major arrays the run's values of a direction
// without a wall link land on consecutive slots, and move as one copy,
// whatever the run's length. Only a wall link goes node by node.
func (s *Streamer) Block(b int, dst []float64) {
	src, m := s.l.Dist(), s.l.Macros()
	o, e := s.l.BlockBox(b)
	idx := b * e[0] * e[1] * e[2]
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			r := s.row(x, y)
			for z, end := o[2], o[2]+e[2]; z < end; {
				next, c, walls := s.run(r, z, end)
				d, n := &s.tab[1][c], next-z
				for q := 0; q < lattice.Q; q++ {
					j := q*s.stride + idx
					if walls&(1<<q) == 0 {
						copy(dst[j+d[q]:j+d[q]+n], src[j:j+n])
						continue
					}
					for k := 0; k < n; k++ {
						_, _, _, refl, _ := s.bc.Resolve(q, x, y, z+k, src[j+k], m[idx+k].Rho)
						dst[lattice.Opposite[q]*s.stride+idx+k] = refl
					}
				}
				idx += n
				z = next
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
//     (n, Opposite[q]). On a wall link — n+e_q beyond a bounce-back wall
//     — that slot takes the reflected value instead, lid term included.
//   - Swapped: value Opposite[q] of node n is at L_q, the slot direction
//     q of the node owns: (n+e_q, q) in the interior, periodic wrap
//     included, and (n, Opposite[q]) on a wall link. The body loads it
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
// So the phases differ only in where a node's values lie, which the
// body names by table (lattice.Group): the natural phase's tables are
// the grid's, the same for every node, and the swapped phase's are its
// class triple's (Streamer.swap), whose wall links load from and store
// to the node's own slots as the natural phase does. In both phases the
// kernel stores value q of a wall link at (n, Opposite[q]), and the
// body then replaces it there by its reflection, with the density the
// kernel reports the node collided with.
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
// the node kernel each (lattice.CollideGroup), a row's last group short.
// In the natural phase, and in a swapped group whose four nodes share a
// class triple, direction q of the group is one run of four slots, which
// the vector body loads and stores whole; a swapped group across a
// class change — a cube's z-face, the periodic wrap, a z-wall — goes
// slot by slot, lane by lane.
func AABlock(s *Streamer, df []float64, b int, tau float64, swapped bool, fold, force *[3]float64, dg *grid.DigestGrid) {
	m := s.l.Macros()
	o, e := s.l.BlockBox(b)
	idx := b * e[0] * e[1] * e[2]
	var obs grid.DigestRow
	if dg != nil {
		dg.ClearSlots(o, e)
	}
	// The group's densities and velocities, as the kernel collided them,
	// declared once so no group pays to zero them.
	var st [lattice.Lanes]lattice.State
	grp := s.natural
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			r := s.row(x, y)
			if dg != nil {
				obs = dg.Row(x, y)
			}
			for z0 := o[2]; z0 < o[2]+e[2]; z0 += lattice.Lanes {
				n := min(lattice.Lanes, o[2]+e[2]-z0)
				if swapped {
					for k := 0; k < n; k++ {
						t := &s.swap[r.at+s.cls[2][z0+k]]
						grp.Load[k], grp.Store[k] = &t.load, &t.store
					}
				}
				lattice.CollideGroup(df, idx, n, &grp, m[idx:idx+n], fold, force, tau, &st)
				for k := 0; k < n; k++ {
					z := z0 + k
					for w := r.walls | s.walls[2][z]; w != 0; w &= w - 1 {
						q := bits.TrailingZeros32(w)
						j := lattice.Opposite[q]*s.stride + idx + k
						_, _, _, refl, _ := s.bc.Resolve(q, x, y, z, df[j], st[k].Rho)
						df[j] = refl
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

// AAMomentsBlock is kernel 7 of every node of block b after AABlock:
// each node's density and velocity from its post-streaming values, then,
// with a non-nil reset, UpdateRange's folded force reset. swapped is the
// array's phase when the body runs, the phase AABlock left. Swapped, the
// node gathers f_q(n) from (n−e_q, Opposite[q]), or from its own slot
// (n, q) on a wall link, through its class triple's table; natural, it
// reads its own slots, which is UpdateRange. Either way every block
// around b must have run AABlock first, and the body writes only its own
// records.
func AAMomentsBlock(s *Streamer, df []float64, b int, swapped bool, reset *[3]float64) {
	m := s.l.Macros()
	o, e := s.l.BlockBox(b)
	n := e[0] * e[1] * e[2]
	idx := b * n
	if !swapped {
		UpdateRange(df, s.stride, idx, m[idx:idx+n], reset)
		return
	}
	var g [lattice.Q]float64
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			r := s.row(x, y)
			for z := o[2]; z < o[2]+e[2]; z++ {
				for q, off := range &s.pull[r.at+s.cls[2][z]] {
					g[q] = df[idx+off]
				}
				rec := &m[idx]
				rec.Rho = lattice.Moments(&g, rec.Force, &rec.Vel)
				if reset != nil {
					rec.Force = *reset
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
// leave the whole array natural once all have run. Within a range the
// nodes are visited block by block and row by row, a row run by run
// (Streamer.Block): a run's nodes share their offsets, so each pair's
// slots of the run are two runs of consecutive slots, traded in memory
// order.
func CanonicalizeBlocks(s *Streamer, df []float64, lo, hi int) {
	_, e := s.l.BlockBox(0)
	for b := lo; b < hi; b++ {
		o, _ := s.l.BlockBox(b)
		i := b * e[0] * e[1] * e[2]
		for x := o[0]; x < o[0]+e[0]; x++ {
			for y := o[1]; y < o[1]+e[1]; y++ {
				r := s.row(x, y)
				for z, end := o[2], o[2]+e[2]; z < end; {
					next, c, walls := s.run(r, z, end)
					d := &s.tab[0][c]
					for q := 1; q < lattice.Q-1; q += 2 {
						// The pair of (n, q) is (n−e_q, Opposite[q]), a
						// wall slot when n−e_q lies beyond a wall.
						if walls&(1<<(q+1)) == 0 {
							u, v := df[q*s.stride+i:][:next-z], df[(q+1)*s.stride+i+d[q]:][:next-z]
							for k := range u {
								u[k], v[k] = v[k], u[k]
							}
						}
					}
					i += next - z
					z = next
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
