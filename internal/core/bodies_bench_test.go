package core_test

import (
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/grid"
)

// BenchmarkInPlaceBodies times each stream body by itself, on one
// thread: AABlock from each phase, with the moments from the records and
// with the moments folded in (a block outside both support sets,
// core.Support) and, where the blocks are x-planes or cubes a digest can
// tile, with the fold and a digest of the state the sweep overwrites
// ("observed", at the facade's tile size: 4 on the slab grid, the cube
// edge on cubes), AAMomentsBlock from each phase, Canonicalize, and the
// sequential engine's push, Streamer.Block. It runs on two domains: the
// 64×64×32 domain with bounce-back walls at both z ends (sheet_cube's
// fluid), stored in four block extents — the slab grid's x-planes, k = 8
// cubes, and the pencils 8×8×32 and 4×64×32, which keep z-rows whole —
// and, under "cavity64/", the 64³ cavity with bounce-back walls on all
// six faces and a moving lid (cavity_fused's fluid), as x-planes and as
// k = 8 cubes, and, under "tails54/", a 54³ domain with walls at both z
// ends as k = 2, 3 and 9 cubes, whose z-rows of 2, 3 and 9 nodes end in
// a short group of the node kernel. One iteration is one pass of the body over every node,
// after one untimed pass; the ns/node metric is the pass time per node.
// Once both AABlock phases of an extent have run, the benchmark logs
// their ratio, swapped over natural, with and without the fold.
//
//	go test -run '^$' -bench InPlaceBodies ./internal/core
func BenchmarkInPlaceBodies(b *testing.B) {
	body := [3]float64{1e-6, 0, 0}
	pencils := []shape{
		{"8x8x32", func([3]int) [3]int { return [3]int{8, 8, 32} }, 0},
		{"4x64x32", func([3]int) [3]int { return [3]int{4, 64, 32} }, 0},
	}
	for _, dom := range []struct {
		prefix string
		dims   [3]int
		p      core.Problem
		shapes []shape
	}{
		{"", [3]int{64, 64, 32}, core.Problem{Tau: 0.8, BCZ: core.BounceBack}, append([]shape{slab, cubes(8)}, pencils...)},
		{"cavity64/", [3]int{64, 64, 64}, core.Problem{Tau: 0.8, BCX: core.BounceBack, BCY: core.BounceBack, BCZ: core.BounceBack,
			LidVelocity: [3]float64{0.05, 0, 0}}, []shape{slab, cubes(8)}},
		{"tails54/", [3]int{54, 54, 54}, core.Problem{Tau: 0.8, BCZ: core.BounceBack}, []shape{cubes(2), cubes(3), cubes(9)}},
	} {
		for _, sh := range dom.shapes {
			benchBodies(b, dom.prefix, dom.dims, dom.p, sh, &body)
		}
	}
}

// benchBodies runs BenchmarkInPlaceBodies' cases on one domain stored in
// one block extent.
func benchBodies(b *testing.B, prefix string, dims [3]int, p core.Problem, sh shape, body *[3]float64) {
	sbc := p.StreamBC(dims[0], dims[1], dims[2])
	l := twinLayout(b, dims, sh)
	st := core.NewStreamer(l, sbc)
	df := l.Dist()
	nb, _ := blocks(l)
	nodes := l.NumNodes()
	next := make([]float64, len(df))
	each := func(run func(b int)) func() {
		return func() {
			for blk := 0; blk < nb; blk++ {
				run(blk)
			}
		}
	}
	layout := prefix + sh.name
	if sh.name == slab.name {
		layout = prefix + "slab"
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
		{"AABlock/natural/fold", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, false, body, body, nil) })},
		{"AABlock/swapped/fold", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, true, body, body, nil) })},
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
			{"AABlock/natural/fold/observed", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, false, body, body, dg) })},
			{"AABlock/swapped/fold/observed", each(func(blk int) { core.AABlock(st, df, blk, p.Tau, true, body, body, dg) })},
		}...)
	}
	perNode := map[string]float64{}
	for _, c := range cases {
		b.Run(layout+"/"+c.name, func(b *testing.B) {
			c.pass() // first touch of the arrays' pages, untimed
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.pass()
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*nodes)
			perNode[c.name] = ns
			b.ReportMetric(ns, "ns/node")
		})
	}
	if perNode["AABlock/natural"] > 0 && perNode["AABlock/natural/fold"] > 0 {
		b.Logf("%s: AABlock swapped/natural %.2f, with the fold %.2f", layout,
			perNode["AABlock/swapped"]/perNode["AABlock/natural"], perNode["AABlock/swapped/fold"]/perNode["AABlock/natural/fold"])
	}
}
