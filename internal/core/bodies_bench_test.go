package core_test

import (
	"fmt"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/lattice"
)

// BenchmarkInPlaceBodies times each stream body by itself, on one
// thread: AABlock from each phase, with the moments from the records and
// with the moments folded in (a block outside both support sets,
// core.Support), AAMomentsBlock from each phase, Canonicalize, and the
// sequential engine's push, Streamer.Block. It runs on the 64×64×32
// slab grid and on k = 8 cubes of the same domain, with bounce-back walls
// at both z ends (sheet_cube's fluid). One iteration is one pass of the
// body over every node, after one untimed pass; the ns/node metric is
// the pass time per node.
//
//	go test -run '^$' -bench InPlaceBodies ./internal/core
func BenchmarkInPlaceBodies(b *testing.B) {
	dims := [3]int{64, 64, 32}
	p := core.Problem{Tau: 0.8, BCZ: core.BounceBack}
	sbc := p.StreamBC(dims[0], dims[1], dims[2])
	body := [3]float64{1e-6, 0, 0}
	for _, k := range []int{0, 8} { // 0 is the slab grid
		l := twinLayout(b, dims, k)
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
		layout := "slab"
		if k > 0 {
			layout = fmt.Sprintf("k%d", k)
		}
		for _, c := range []struct {
			name string
			pass func()
		}{
			{"AABlock/natural", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, false, nil, nil) })},
			{"AABlock/swapped", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, true, nil, nil) })},
			{"AABlock/natural/fold", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, false, &body, &body) })},
			{"AABlock/swapped/fold", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, true, &body, &body) })},
			{"AAMomentsBlock/natural", each(func(blk int) { core.AAMomentsBlock(st, df, blk, false, nil) })},
			{"AAMomentsBlock/swapped", each(func(blk int) { core.AAMomentsBlock(st, df, blk, true, nil) })},
			{"Canonicalize", func() { core.Canonicalize(st, df) }},
			{"Streamer.Block", each(func(blk int) { st.Block(blk, next) })},
		} {
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
