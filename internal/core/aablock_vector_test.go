package core_test

import (
	"fmt"
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/cpu"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// TestAABlockVectorMatchesPortable holds AABlock on the vector node
// kernel, which collides the nodes of a z-row four at a time, to AABlock
// on the Go kernel (cpu.PortableForTest), bit for bit: on grids of every
// block extent, from either phase, on the record path, with a given
// force, with the fold and with both, each with and without a digest of
// the sweep where a digest tiles the blocks. The boundary cases put wall
// nodes at every position of a group, and the domains give rows of 12,
// 9 and 11 nodes as well as blocks 2, 4 and 8 nodes deep, so that a
// row's last group holds 1, 2, 3 or 4 nodes.
func TestAABlockVectorMatchesPortable(t *testing.T) {
	if !cpu.Vector() {
		t.Skip("no vector body on this host")
	}
	body := [3]float64{2e-5, -1e-5, 3e-5}
	paths := []struct {
		name        string
		fold, force *[3]float64
	}{{"record", nil, nil}, {"force", nil, &body}, {"fold", &body, nil}, {"fold+force", &body, &body}}
	for _, sh := range shapes {
		for _, dims := range [][3]int{smallDims(sh), {8, 4, 9}, {8, 4, 11}} {
			if !sh.divides(dims) {
				continue
			}
			for _, bc := range conformanceBCs {
				t.Run(fmt.Sprintf("%s/%dx%dx%d/%s", sh.name, dims[0], dims[1], dims[2], bc.name), func(t *testing.T) {
					p := core.Problem{Tau: 0.8, BCX: bc.bcx, BCY: bc.bcy, BCZ: bc.bcz, LidVelocity: bc.lid}
					sbc := p.StreamBC(dims[0], dims[1], dims[2])
					for _, swapped := range []bool{false, true} {
						for _, path := range paths {
							for _, observed := range []bool{false, true} {
								vec, port := twinLayout(t, dims, sh), twinLayout(t, dims, sh)
								var dgVec, dgPort *grid.DigestGrid
								if observed {
									k := 4
									if sh.cube > 0 {
										k = sh.cube
									}
									dgVec, _ = grid.NewDigestGrid(dims[0], dims[1], dims[2], k)
									dgPort, _ = grid.NewDigestGrid(dims[0], dims[1], dims[2], k)
									if dgVec.Fits(vec) != nil {
										continue
									}
								}
								sVec, sPort := core.NewStreamer(vec, sbc), core.NewStreamer(port, sbc)
								nb, _ := blocks(vec)
								for b := 0; b < nb; b++ {
									core.AABlock(sVec, vec.Dist(), b, p.Tau, swapped, path.fold, path.force, dgVec)
								}
								restore := cpu.PortableForTest()
								for b := 0; b < nb; b++ {
									core.AABlock(sPort, port.Dist(), b, p.Tau, swapped, path.fold, path.force, dgPort)
								}
								restore()
								what := fmt.Sprintf("swapped=%v/%s/observed=%v", swapped, path.name, observed)
								for i := range vec.Dist() {
									for q := range vec.Dist()[i] {
										a, b := vec.Dist()[i][q], port.Dist()[i][q]
										if math.Float64bits(a) != math.Float64bits(b) {
											t.Fatalf("%s: entry %d slot %d: vector %v (%#x), Go %v (%#x)", what, i, q, a, math.Float64bits(a), b, math.Float64bits(b))
										}
									}
								}
								if !observed {
									continue
								}
								dgVec.Reduce()
								dgPort.Reduce()
								for i := range dgVec.Tiles {
									if dgVec.Tiles[i] != dgPort.Tiles[i] {
										t.Fatalf("%s: digest tile %d: vector %+v, Go %+v", what, i, dgVec.Tiles[i], dgPort.Tiles[i])
									}
								}
								if math.Float64bits(dgVec.Mass) != math.Float64bits(dgPort.Mass) {
									t.Fatalf("%s: digest mass: vector %v, Go %v", what, dgVec.Mass, dgPort.Mass)
								}
							}
						}
					}
				})
			}
		}
	}
}

// CollideRange takes its range four nodes at a time, the last group
// short: on ranges of every length from 1 to 9, at every offset into the
// array, the vector kernel leaves the Go kernel's bits in the range and
// every other node untouched.
func TestCollideRangeGroupsMatchPortable(t *testing.T) {
	if !cpu.Vector() {
		t.Skip("no vector body on this host")
	}
	g := grid.New(2, 2, 4)
	randomState(g, 5)
	for lo := 0; lo < 4; lo++ {
		for n := 1; n <= 9 && lo+n <= g.NumNodes(); n++ {
			vec := append([][lattice.Q]float64(nil), g.Dist()...)
			port := append([][lattice.Q]float64(nil), g.Dist()...)
			core.CollideRange(vec[lo:lo+n], g.Macros()[lo:lo+n], 0.7)
			restore := cpu.PortableForTest()
			core.CollideRange(port[lo:lo+n], g.Macros()[lo:lo+n], 0.7)
			restore()
			for i := range vec {
				for q := range vec[i] {
					if math.Float64bits(vec[i][q]) != math.Float64bits(port[i][q]) {
						t.Fatalf("range [%d, %d): entry %d slot %d: vector %v, Go %v", lo, lo+n, i, q, vec[i][q], port[i][q])
					}
				}
			}
		}
	}
}
