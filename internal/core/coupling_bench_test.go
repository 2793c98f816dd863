package core_test

import (
	"math/rand"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/cpu"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/ibm"
)

// BenchmarkCoupling times the pieces of the IB coupling by themselves,
// on one thread, on dense_ib's geometry: eight 64×64 sheets with node
// spacing 0.4 at x = 4, 7, …, 25 (plus a fixed offset), centred in a
// 32³ periodic slab grid whose records hold random velocities. Each row
// runs with the bodies cpu.Vector selects ("vector") and with the Go
// bodies ("portable"):
//
//   - stencil: ibm.Stencil.Compute;
//   - spread and gather: Coupling.SpreadStencil and InterpolateStencil
//     on stencils computed beforehand (the window's resolution and the
//     64-point loop);
//   - SpreadBox: kernel 4 into the two x-halves of the box in turn, as
//     the omp engine's two threads spread, stencils included;
//   - MoveSheetNodes: kernel 8, stencils included.
//
// One iteration is one pass over the 32,768 fiber nodes, after one
// untimed pass; the ns/node metric is the pass time per fiber node.
//
//	go test -run '^$' -bench Coupling ./internal/core
func BenchmarkCoupling(b *testing.B) {
	r := rand.New(rand.NewSource(43))
	g := grid.New(32, 32, 32)
	m := g.Macros()
	for i := range m {
		m[i].Vel = [3]float64{1e-9 * r.NormFloat64(), 1e-9 * r.NormFloat64(), 1e-9 * r.NormFloat64()}
	}
	c := g.Coupling
	var sheets []*fiber.Sheet
	var xs, fs [][3]float64
	for i := 0; i < 8; i++ {
		const n, w = 64, 64 * 0.4
		sh := fiber.NewSheet(fiber.Params{NumFibers: n, NodesPerFiber: n, Width: w, Height: w,
			Origin: [3]float64{4 + 3*float64(i) + 0.37, 16 - w/2 + 0.61, 16 - w/2 + 0.23}, Ks: 0.05, Kb: 0.001})
		for j := range sh.Force {
			sh.Force[j] = [3]float64{1e-3 * r.NormFloat64(), 1e-3 * r.NormFloat64(), 1e-3 * r.NormFloat64()}
		}
		sheets = append(sheets, sh)
		xs = append(xs, sh.X...)
		fs = append(fs, sh.Force...)
	}
	sts := make([]ibm.Stencil, len(xs))
	for i, x := range xs {
		sts[i].Compute(x)
	}
	area := sheets[0].AreaElement()
	half := c.Whole()
	half.Hi[0] /= 2
	other := c.Whole()
	other.Lo[0] = half.Hi[0]
	for _, piece := range []struct {
		name string
		pass func()
	}{
		{"stencil", func() {
			var st ibm.Stencil
			for _, x := range xs {
				st.Compute(x)
			}
			couplingSink += st.Wx[0]
		}},
		{"spread", func() {
			for i := range sts {
				c.SpreadStencil(sts[i], fs[i], area)
			}
		}},
		{"gather", func() {
			for i := range sts {
				u := c.InterpolateStencil(sts[i])
				couplingSink += u[0]
			}
		}},
		{"SpreadBox", func() {
			core.SpreadBox(c, sheets, half, nil)
			core.SpreadBox(c, sheets, other, nil)
		}},
		{"MoveSheetNodes", func() {
			for _, sh := range sheets {
				core.MoveSheetNodes(c, sh, 0, sh.NumNodes())
			}
		}},
	} {
		for _, body := range []string{"vector", "portable"} {
			b.Run(piece.name+"/"+body, func(b *testing.B) {
				if body == "vector" && !cpu.Vector() {
					b.Skip("no vector body on this host")
				}
				if body == "portable" {
					defer cpu.PortableForTest()()
				}
				piece.pass() // first touch, untimed
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					piece.pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/node")
			})
		}
	}
}

// couplingSink keeps BenchmarkCoupling's results live.
var couplingSink float64
