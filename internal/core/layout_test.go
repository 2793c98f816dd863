package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"lbmib/internal/core"
	"lbmib/internal/cube"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// randomState fills g with a reproducible non-equilibrium state: every
// distribution slot, macroscopic field and force component differs from
// node to node, so a misrouted or dropped value cannot go unnoticed.
func randomState(g *grid.Grid, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := range g.Macros() {
		n := &g.Macros()[i]
		for q := 0; q < lattice.Q; q++ {
			g.Dist()[i][q] = lattice.W[q] * (0.8 + 0.4*r.Float64())
		}
		n.Rho = 0.9 + 0.2*r.Float64()
		for d := 0; d < 3; d++ {
			n.Vel[d] = 0.04 * (r.Float64() - 0.5)
			n.Force[d] = 1e-3 * (r.Float64() - 0.5)
		}
	}
}

// checkContract verifies the storage half of the block-layout contract:
// the storage is split — one distribution array of N entries and N
// records of 56 B — and blocks are contiguous, equal-sized, ordered
// z-fastest inside BlockBox, tile the domain exactly once, and Idx is
// separable per axis.
func checkContract(t *testing.T, l core.Layout) {
	t.Helper()
	nx, ny, nz := l.Dims()
	n := nx * ny * nz
	if size := unsafe.Sizeof(grid.Macro{}); size != 56 {
		t.Fatalf("the per-node record is %d B, want 56 (u, ρ, F)", size)
	}
	if len(l.Dist()) != n || len(l.Macros()) != n {
		t.Fatalf("storage holds %d distributions and %d records, want %d each",
			len(l.Dist()), len(l.Macros()), n)
	}
	seen := make([]bool, n)
	_, e0 := l.BlockBox(0)
	bn := e0[0] * e0[1] * e0[2]
	for b := 0; b*bn < n; b++ {
		o, e := l.BlockBox(b)
		if e != e0 {
			t.Fatalf("block %d extent %v differs from block 0's %v", b, e, e0)
		}
		i := b * bn
		for x := o[0]; x < o[0]+e[0]; x++ {
			for y := o[1]; y < o[1]+e[1]; y++ {
				for z := o[2]; z < o[2]+e[2]; z++ {
					if got := l.Idx(x, y, z); got != i {
						t.Fatalf("block %d node (%d,%d,%d): Idx = %d, want %d (contiguous, z-fastest)", b, x, y, z, got, i)
					}
					if want := l.Idx(x, 0, 0) + l.Idx(0, y, 0) + l.Idx(0, 0, z); want != i {
						t.Fatalf("Idx not separable at (%d,%d,%d): %d vs per-axis sum %d", x, y, z, i, want)
					}
					seen[i] = true
					i++
				}
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("node %d belongs to no block", i)
		}
	}
}

// crossings counts, per lattice direction, how many (node, direction)
// moves leave the node's block and how many leave the domain.
func crossings(l core.Layout) (blockEdge, domainEdge [lattice.Q]int) {
	nx, ny, nz := l.Dims()
	dims := [3]int{nx, ny, nz}
	_, e := l.BlockBox(0)
	for b := 0; b*e[0]*e[1]*e[2] < nx*ny*nz; b++ {
		o, _ := l.BlockBox(b)
		for x := 0; x < e[0]; x++ {
			for y := 0; y < e[1]; y++ {
				for z := 0; z < e[2]; z++ {
					local := [3]int{x, y, z}
					for q := 0; q < lattice.Q; q++ {
						leavesBlock, leavesDomain := false, false
						for a := 0; a < 3; a++ {
							c := local[a] + lattice.E[q][a]
							leavesBlock = leavesBlock || c < 0 || c >= e[a]
							leavesDomain = leavesDomain || o[a]+c < 0 || o[a]+c >= dims[a]
						}
						if leavesBlock {
							blockEdge[q]++
						}
						if leavesDomain {
							domainEdge[q]++
						}
					}
				}
			}
		}
	}
	return
}

// blocks returns l's block count and nodes per block.
func blocks(l core.Layout) (nb, n int) {
	_, e := l.BlockBox(0)
	n = e[0] * e[1] * e[2]
	return len(l.Macros()) / n, n
}

// refStep runs one step the way the sequential engine composes the
// bodies: collide → Streamer.Block into the second array next → update
// from next → kernel 9's copy back.
func refStep(l core.Layout, st *core.Streamer, next [][lattice.Q]float64, tau float64, reset *[3]float64) {
	m := l.Macros()
	nb, n := blocks(l)
	core.CollideRange(l.Dist(), m, tau)
	for b := 0; b < nb; b++ {
		st.Block(b, next)
	}
	for b := 0; b < nb; b++ {
		core.UpdateRange(next[b*n:(b+1)*n], m[b*n:(b+1)*n], reset)
	}
	core.CopyRange(l.Dist(), next)
}

// aaStep runs one in-place step from phase swapped the way the parallel
// engines compose the bodies: AABlock over every block, then
// AAMomentsBlock over every block at the phase AABlock left.
func aaStep(l core.Layout, st *core.Streamer, tau float64, swapped bool, reset *[3]float64) {
	nb, _ := blocks(l)
	for b := 0; b < nb; b++ {
		core.AABlock(st, l.Dist(), b, tau, swapped)
	}
	for b := 0; b < nb; b++ {
		core.AAMomentsBlock(st, l.Dist(), b, !swapped, reset)
	}
}

// conformanceBCs are the boundary cases the conformance test runs.
var conformanceBCs = []struct {
	name          string
	bcx, bcy, bcz core.BC
	lid           [3]float64
}{
	{name: "periodic"},
	{name: "bounceback", bcx: core.BounceBack, bcz: core.BounceBack},
	{name: "lid", bcy: core.BounceBack, bcz: core.BounceBack, lid: [3]float64{0.05, 0.01, 0}},
}

// TestLayoutConformance is the contract's executable statement: the same
// state loaded into the slab grid and into cube layouts, advanced by the
// same shared bodies — once as the sequential engine composes them,
// ending in kernel 9's copy, once streaming in place through the swapped
// phase and back — must stay bitwise equal, under periodic, bounce-back
// and moving-lid boundaries, on cubic and non-cubic grids, with every
// lattice direction crossing block and domain edges. Its aa case holds
// the in-place bodies against the two-array reference.
func TestLayoutConformance(t *testing.T) {
	for _, dims := range [][3]int{{8, 8, 8}, {8, 4, 12}} {
		for _, k := range []int{2, 4} {
			for _, bc := range conformanceBCs {
				for _, end := range []string{"copy", "swap"} {
					name := fmt.Sprintf("%dx%dx%d/k%d/%s/%s", dims[0], dims[1], dims[2], k, bc.name, end)
					t.Run(name, func(t *testing.T) {
						g := grid.New(dims[0], dims[1], dims[2])
						randomState(g, 42)
						l, err := cube.NewLayout(dims[0], dims[1], dims[2], k)
						if err != nil {
							t.Fatal(err)
						}
						if err := l.FromGrid(g); err != nil {
							t.Fatal(err)
						}
						checkContract(t, g)
						checkContract(t, l)
						for _, lay := range []core.Layout{g, l} {
							be, de := crossings(lay)
							for q := 1; q < lattice.Q; q++ {
								if be[q] == 0 || de[q] == 0 {
									t.Fatalf("direction %d crosses %d block edges and %d domain edges; the case exercises nothing", q, be[q], de[q])
								}
							}
						}
						p := core.Problem{Tau: 0.8, BCX: bc.bcx, BCY: bc.bcy, BCZ: bc.bcz, LidVelocity: bc.lid}
						sbc := p.StreamBC(dims[0], dims[1], dims[2])
						sg, sl := core.NewStreamer(g, sbc), core.NewStreamer(l, sbc)
						nextG := make([][lattice.Q]float64, g.NumNodes())
						nextL := make([][lattice.Q]float64, l.NumNodes())
						body := [3]float64{2e-5, -1e-5, 3e-5}
						for s := 0; s < 2; s++ {
							var reset *[3]float64
							if s == 1 {
								reset = &body // the folded force reset rides along on one of the steps
							}
							if end == "copy" {
								refStep(g, sg, nextG, p.Tau, reset)
								refStep(l, sl, nextL, p.Tau, reset)
							} else {
								aaStep(g, sg, p.Tau, s == 1, reset)
								aaStep(l, sl, p.Tau, s == 1, reset)
							}
							for x := 0; x < dims[0]; x++ {
								for y := 0; y < dims[1]; y++ {
									for z := 0; z < dims[2]; z++ {
										gi, li := g.Idx(x, y, z), l.Idx(x, y, z)
										if a, b := g.At(x, y, z), l.At(x, y, z); *a != *b {
											t.Fatalf("step %d: node (%d,%d,%d) differs between the layouts:\nslab %+v\ncube %+v", s, x, y, z, *a, *b)
										}
										if g.Dist()[gi] != l.Dist()[li] {
											t.Fatalf("step %d: node (%d,%d,%d) distributions differ between the layouts", s, x, y, z)
										}
									}
								}
							}
						}
					})
				}
			}
		}
	}
	t.Run("aa", aaConformance)
}

// aaConformance states the in-place stream: on the slab grid and on cube
// layouts, a natural → swapped step and a swapped → natural step, each
// followed by its moments body, must leave every array bitwise equal to
// two steps of collide → Streamer.Block → UpdateRange → copy on a
// two-array clone, under every conformance boundary case, with the force
// reset on one of the steps. At the swapped phase, where the array is
// not comparable slot by slot, Canonicalize must turn a copy of it into
// the reference's post-streaming array.
func aaConformance(t *testing.T) {
	body := [3]float64{2e-5, -1e-5, 3e-5}
	dims := [3]int{8, 4, 12}
	for _, k := range []int{0, 2, 4} { // 0 is the slab grid
		for _, bc := range conformanceBCs {
			t.Run(fmt.Sprintf("k%d/%s", k, bc.name), func(t *testing.T) {
				p := core.Problem{Tau: 0.8, BCX: bc.bcx, BCY: bc.bcy, BCZ: bc.bcz, LidVelocity: bc.lid}
				ref, aa := twinLayout(t, dims, k), twinLayout(t, dims, k)
				sbc := p.StreamBC(dims[0], dims[1], dims[2])
				sRef, sAA := core.NewStreamer(ref, sbc), core.NewStreamer(aa, sbc)
				next := make([][lattice.Q]float64, len(ref.Macros()))
				for s := 0; s < 2; s++ {
					swapped := s == 1
					reset := &body
					if !swapped {
						reset = nil
					}
					refStep(ref, sRef, next, p.Tau, reset)
					aaStep(aa, sAA, p.Tau, swapped, reset)
					got := aa.Dist()
					if !swapped {
						got = append([][lattice.Q]float64(nil), got...)
						core.Canonicalize(sAA, got)
					}
					for j := range next {
						if ref.Macros()[j] != aa.Macros()[j] {
							t.Fatalf("step %d: node %d record: reference %+v, in place %+v", s, j, ref.Macros()[j], aa.Macros()[j])
						}
						if got[j] != next[j] || ref.Dist()[j] != next[j] {
							t.Fatalf("step %d: node %d distributions differ from the reference's post-streaming array", s, j)
						}
					}
				}
			})
		}
	}
}

// TestStreamerOffsetsMatchResolve holds the Streamer's tables against
// StreamBC.Resolve, node by node: on the slab grid and on cube layouts of
// edge 2, 4 and 8, with one cube along one axis, under every conformance
// boundary case, each neighbour at sign·e_q must be a wall link exactly
// when Resolve bounces the move, and otherwise sit at the node's entry
// plus the table's offset. Every axis must fit in five classes (three on
// the slab grid): a class per coordinate would multiply the tables by the
// domain's size.
func TestStreamerOffsetsMatchResolve(t *testing.T) {
	for _, k := range []int{0, 2, 4, 8} { // 0 is the slab grid
		e := k // one cube along y, then along x
		if k == 0 {
			e = 4
		}
		for _, dims := range [][3]int{{2 * e, e, 3 * e}, {e, 2 * e, 2 * e}} {
			for _, bc := range conformanceBCs {
				t.Run(fmt.Sprintf("k%d/%dx%dx%d/%s", k, dims[0], dims[1], dims[2], bc.name), func(t *testing.T) {
					l := twinLayout(t, dims, k)
					p := core.Problem{BCX: bc.bcx, BCY: bc.bcy, BCZ: bc.bcz, LidVelocity: bc.lid}
					sbc := p.StreamBC(dims[0], dims[1], dims[2])
					s := core.NewStreamer(l, sbc)
					limit := 5
					if k == 0 {
						limit = 3
					}
					for a, n := range s.Classes() {
						if n > limit {
							t.Fatalf("axis %d has %d classes, want at most %d", a, n, limit)
						}
					}
					for x := 0; x < dims[0]; x++ {
						for y := 0; y < dims[1]; y++ {
							for z := 0; z < dims[2]; z++ {
								i := l.Idx(x, y, z)
								for _, sign := range []int{-1, 1} {
									walls, d := s.Links(x, y, z, sign)
									for q := 0; q < lattice.Q; q++ {
										// The move towards sign·e_q is direction qs.
										qs := q
										if sign < 0 {
											qs = lattice.Opposite[q]
										}
										tx, ty, tz, _, bounce := sbc.Resolve(qs, x, y, z, 0, 0)
										if wall := walls&(1<<qs) != 0; wall != bounce {
											t.Fatalf("node (%d,%d,%d) direction %d: wall link %v, Resolve bounces %v", x, y, z, qs, wall, bounce)
										}
										if !bounce && l.Idx(tx, ty, tz) != i+d[q] {
											t.Fatalf("node (%d,%d,%d) sign %d q %d: neighbour (%d,%d,%d) at entry %d, table says %d",
												x, y, z, sign, q, tx, ty, tz, l.Idx(tx, ty, tz), i+d[q])
										}
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// twinLayout loads randomState's seed-42 state into a slab grid (k = 0)
// or a cube layout of edge k.
func twinLayout(t *testing.T, dims [3]int, k int) core.Layout {
	g := grid.New(dims[0], dims[1], dims[2])
	randomState(g, 42)
	if k == 0 {
		return g
	}
	l, err := cube.NewLayout(dims[0], dims[1], dims[2], k)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.FromGrid(g); err != nil {
		t.Fatal(err)
	}
	return l
}
