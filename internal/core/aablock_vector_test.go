package core_test

import (
	"fmt"
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/cpu"
	"lbmib/internal/grid"
)

// TestAABlockVectorMatchesPortable holds AABlock on the vector node
// kernel, which collides the nodes of a z-row four at a time, to AABlock
// on the Go kernel (cpu.PortableForTest), bit for bit: on grids of every
// block extent, from either phase, on the record path, with a given
// force, with the fold and with both, each with and without a digest of
// the sweep where a digest tiles the blocks, and once more on a state
// whose every fifth slot holds a special value (±0, subnormals, ±max,
// ±∞, NaN; a NaN matches any NaN there). The boundary cases put wall
// nodes at every position of a group, the swapped phase on cubes and
// across a periodic wrap gives groups whose lanes differ in class and go
// lane by lane beside groups that share one table, and the domains give
// rows of 12, 9 and 11 nodes as well as blocks 2, 4 and 8 nodes deep, so
// that a row's last group holds 1, 2, 3 or 4 nodes.
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
							for _, mode := range [][2]bool{{false, false}, {true, false}, {false, true}} {
								observed, special := mode[0], mode[1]
								vec, port := twinLayout(t, dims, sh), twinLayout(t, dims, sh)
								if special {
									poison(vec)
									poison(port)
								}
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
								what := fmt.Sprintf("swapped=%v/%s/observed=%v/special=%v", swapped, path.name, observed, special)
								n := vec.Stride()
								for j := range vec.Dist() {
									a, b := vec.Dist()[j], port.Dist()[j]
									if math.Float64bits(a) != math.Float64bits(b) && !(a != a && b != b) {
										t.Fatalf("%s: entry %d slot %d: vector %v (%#x), Go %v (%#x)", what, j%n, j/n, a, math.Float64bits(a), b, math.Float64bits(b))
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

// specials are values whose arithmetic differs from an ordinary
// number's.
var specials = []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, math.MaxFloat64,
	-math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

// poison writes the special values in turn into every fifth slot of g's
// distributions, and one into every seventh record's density.
func poison(g *grid.Grid) {
	df, m := g.Dist(), g.Macros()
	for j := 0; j < len(df); j += 5 {
		df[j] = specials[j/5%len(specials)]
	}
	for i := 0; i < len(m); i += 7 {
		m[i].Rho = specials[i/7%len(specials)]
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
			vec := append([]float64(nil), g.Dist()...)
			port := append([]float64(nil), g.Dist()...)
			core.CollideRange(vec, g.Stride(), lo, g.Macros()[lo:lo+n], 0.7)
			restore := cpu.PortableForTest()
			core.CollideRange(port, g.Stride(), lo, g.Macros()[lo:lo+n], 0.7)
			restore()
			nodes := g.Stride()
			for j := range vec {
				if math.Float64bits(vec[j]) != math.Float64bits(port[j]) {
					t.Fatalf("range [%d, %d): entry %d slot %d: vector %v, Go %v", lo, lo+n, j%nodes, j/nodes, vec[j], port[j])
				}
			}
		}
	}
}
