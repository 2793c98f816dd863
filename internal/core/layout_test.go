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
			g.Dist(0)[i][q] = lattice.W[q] * (0.8 + 0.4*r.Float64())
			g.Dist(1)[i][q] = r.Float64()
		}
		n.Rho = 0.9 + 0.2*r.Float64()
		for d := 0; d < 3; d++ {
			n.Vel[d] = 0.04 * (r.Float64() - 0.5)
			n.Force[d] = 1e-3 * (r.Float64() - 0.5)
		}
	}
}

// checkContract verifies the storage half of the block-layout contract:
// the storage is split — a distribution array of N entries per parity
// and N records of 56 B — and blocks are contiguous, equal-sized, ordered
// z-fastest inside BlockBox, tile the domain exactly once, and Idx is
// separable per axis.
func checkContract(t *testing.T, l core.Layout) {
	t.Helper()
	nx, ny, nz := l.Dims()
	n := nx * ny * nz
	if size := unsafe.Sizeof(grid.Macro{}); size != 56 {
		t.Fatalf("the per-node record is %d B, want 56 (u, ρ, F)", size)
	}
	if len(l.Dist(0)) != n || len(l.Dist(1)) != n || len(l.Macros()) != n {
		t.Fatalf("storage holds %d and %d distributions and %d records, want %d each",
			len(l.Dist(0)), len(l.Dist(1)), len(l.Macros()), n)
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

// step runs one shared collide → stream → update over every block of l at
// parity cur, the way every push engine composes the bodies.
func step(l core.Layout, st *core.Streamer, tau float64, cur int, reset *[3]float64) {
	m := l.Macros()
	_, e := l.BlockBox(0)
	n := e[0] * e[1] * e[2]
	core.CollideRange(l.Dist(cur), m, tau)
	for b := 0; b*n < len(m); b++ {
		st.Block(b, cur)
	}
	next := l.Dist(1 - cur)
	for b := 0; b*n < len(m); b++ {
		core.UpdateRange(next[b*n:(b+1)*n], m[b*n:(b+1)*n], reset)
	}
}

// TestLayoutConformance is the contract's executable statement: the same
// state loaded into the slab grid and into cube layouts, advanced by the
// same shared bodies — once ending in kernel 9's copy, once in the O(1)
// swap, then again at the flipped parity — must stay bitwise equal, under
// periodic, bounce-back and moving-lid boundaries, on cubic and non-cubic
// grids, with every lattice direction crossing block and domain edges.
func TestLayoutConformance(t *testing.T) {
	type bcCase struct {
		name          string
		bcx, bcy, bcz core.BC
		lid           [3]float64
	}
	bcs := []bcCase{
		{name: "periodic"},
		{name: "bounceback", bcx: core.BounceBack, bcz: core.BounceBack},
		{name: "lid", bcy: core.BounceBack, bcz: core.BounceBack, lid: [3]float64{0.05, 0.01, 0}},
	}
	for _, dims := range [][3]int{{8, 8, 8}, {8, 4, 12}} {
		for _, k := range []int{2, 4} {
			for _, bc := range bcs {
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
						body := [3]float64{2e-5, -1e-5, 3e-5}
						for s := 0; s < 2; s++ {
							var reset *[3]float64
							if s == 1 {
								reset = &body // the folded force reset rides along on one of the steps
							}
							step(g, sg, p.Tau, g.Cur(), reset)
							step(l, sl, p.Tau, l.Cur(), reset)
							if end == "copy" {
								core.CopyRange(g.Dist(g.Cur()), g.Dist(1-g.Cur()))
								core.CopyRange(l.Dist(l.Cur()), l.Dist(1-l.Cur()))
							} else {
								g.Swap()
								l.Swap()
							}
							if g.Cur() != l.Cur() {
								t.Fatalf("step %d: parities diverge", s)
							}
							for x := 0; x < dims[0]; x++ {
								for y := 0; y < dims[1]; y++ {
									for z := 0; z < dims[2]; z++ {
										gi, li := g.Idx(x, y, z), l.Idx(x, y, z)
										if a, b := g.At(x, y, z), l.At(x, y, z); *a != *b {
											t.Fatalf("step %d: node (%d,%d,%d) differs between the layouts:\nslab %+v\ncube %+v", s, x, y, z, *a, *b)
										}
										for p := 0; p < 2; p++ {
											if g.Dist(p)[gi] != l.Dist(p)[li] {
												t.Fatalf("step %d: node (%d,%d,%d) buffer %d differs between the layouts", s, x, y, z, p)
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
}
