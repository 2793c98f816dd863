package core_test

import (
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// BenchmarkInPlaceBodies times each stream body by itself, on one
// thread: AABlock from each phase, with the moments from the records and
// with the moments folded in (a block outside both support sets,
// core.Support) and, where the blocks are x-planes or cubes a digest can
// tile, with the fold and a digest of the state the sweep overwrites
// ("observed", at the facade's tile size: 4 on the slab grid, the cube
// edge on cubes), AAMomentsBlock from each phase, Canonicalize, and the
// sequential engine's push, Streamer.Block. It runs on the 64×64×32
// domain with bounce-back walls at both z ends (sheet_cube's fluid),
// stored in four block extents: the slab grid's x-planes, k = 8 cubes,
// and the pencils 8×8×32 and 4×64×32, which keep z-rows whole. One
// iteration is one pass of the body over every node, after one untimed
// pass; the ns/node metric is the pass time per node.
//
//	go test -run '^$' -bench InPlaceBodies ./internal/core
func BenchmarkInPlaceBodies(b *testing.B) {
	dims := [3]int{64, 64, 32}
	p := core.Problem{Tau: 0.8, BCZ: core.BounceBack}
	sbc := p.StreamBC(dims[0], dims[1], dims[2])
	body := [3]float64{1e-6, 0, 0}
	for _, sh := range []shape{slab, cubes(8),
		{"8x8x32", func([3]int) [3]int { return [3]int{8, 8, 32} }, 0},
		{"4x64x32", func([3]int) [3]int { return [3]int{4, 64, 32} }, 0},
	} {
		l := twinLayout(b, dims, sh)
		st := core.NewStreamer(l, sbc)
		df := l.Dist()
		nb, _ := blocks(l)
		next := make([][lattice.Q]float64, len(df))
		each := func(body func(b int)) func() {
			return func() {
				for blk := 0; blk < nb; blk++ {
					body(blk)
				}
			}
		}
		layout := sh.name
		if sh.name == slab.name {
			layout = "slab"
		}
		k := 4
		if e := l.BlockExtent(); e[0] == e[1] && e[1] == e[2] {
			k = e[0]
		}
		dg, err := grid.NewDigestGrid(dims[0], dims[1], dims[2], k)
		if err != nil {
			b.Fatal(err)
		}
		cases := []struct {
			name string
			pass func()
		}{
			{"AABlock/natural", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, false, nil, nil, nil) })},
			{"AABlock/swapped", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, true, nil, nil, nil) })},
			{"AABlock/natural/fold", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, false, &body, &body, nil) })},
			{"AABlock/swapped/fold", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, true, &body, &body, nil) })},
			{"AAMomentsBlock/natural", each(func(blk int) { core.AAMomentsBlock(st, df, blk, false, nil) })},
			{"AAMomentsBlock/swapped", each(func(blk int) { core.AAMomentsBlock(st, df, blk, true, nil) })},
			{"Canonicalize", func() { core.Canonicalize(st, df) }},
			{"Streamer.Block", each(func(blk int) { st.Block(blk, next) })},
		}
		if dg.Fits(l) == nil {
			cases = append(cases, []struct {
				name string
				pass func()
			}{
				{"AABlock/natural/fold/observed", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, false, &body, &body, dg) })},
				{"AABlock/swapped/fold/observed", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, true, &body, &body, dg) })},
			}...)
		}
		for _, c := range cases {
			b.Run(layout+"/"+c.name, func(b *testing.B) {
				c.pass() // first touch of the arrays' pages, untimed
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(df)), "ns/node")
			})
		}
	}
}
