package core

import (
	"testing"

	"lbmib/internal/cube"
	"lbmib/internal/grid"
	"lbmib/internal/ibm"
)

// pointStencil is the degenerate stencil whose only non-zero weight, 1,
// sits on its base node (x, y, z): spreading f through it with unit area
// adds exactly f there.
func pointStencil(x, y, z int) ibm.Stencil {
	e0 := [ibm.SupportWidth]float64{1}
	return ibm.Stencil{Base: [3]int{x, y, z}, Wx: e0, Wy: e0, Wz: e0}
}

// The accumulator-level invariants of lock-free spreading (DESIGN.md
// §13), over both block shapes the engines use: x-planes of the slab grid
// (no worker-owned blocks) and cubes (worker 0 owns block 0).
func TestSpreadAccumInvariants(t *testing.T) {
	cubes, err := cube.NewLayout(4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		l        Layout
		blockLen int
		owner    []int
	}{
		{"plane-blocks", grid.New(4, 3, 5), 3 * 5, nil},
		{"cube-blocks", cubes, 2 * 2 * 2, []int{0, 1, 1, 1, 1, 1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes := tc.l.Macros()
			accums := NewSpreadAccums(tc.l, 2, tc.owner)
			a := accums[0]
			for b, buf := range a.blocks {
				if buf != nil {
					t.Fatalf("block %d allocated before any contribution", b)
				}
			}
			blockOf := func(x, y, z int) int { return tc.l.Idx(x, y, z) / tc.blockLen }
			block := func(b int) []grid.Macro { return nodes[b*tc.blockLen : (b+1)*tc.blockLen] }

			// First touch allocates exactly the touched block; unwrapped
			// coordinates land on their periodic image.
			nx, ny, nz := tc.l.Dims()
			f := [3]float64{1, 2, 3}
			a.Begin(1)
			a.SpreadStencil(pointStencil(3+nx, 1-ny, 1+2*nz), f, 1)
			a.SpreadStencil(pointStencil(3, 1, 1), f, 1)
			target := blockOf(3, 1, 1)
			for b, buf := range a.blocks {
				if (buf != nil) != (b == target) {
					t.Fatalf("after one node's contributions block %d allocated=%v, touched block is %d", b, buf != nil, target)
				}
			}
			at := tc.l.Idx(3, 1, 1)
			if got := a.blocks[target][at-target*tc.blockLen]; got != [3]float64{2, 4, 6} {
				t.Fatalf("buffered contribution = %v, want the two wrapped images summed", got)
			}
			if nodes[at].Force != ([3]float64{}) {
				t.Fatal("a buffered contribution reached the grid before the reduction")
			}

			// The reduction folds the buffer into the grid and zeroes it.
			ReduceSpread(accums, block(target), target, 1)
			if nodes[at].Force != [3]float64{2, 4, 6} {
				t.Fatalf("reduced force = %v, want {2 4 6}", nodes[at].Force)
			}
			for i, v := range a.blocks[target] {
				if v != ([3]float64{}) {
					t.Fatalf("consumed buffer slot %d = %v, want zero", i, v)
				}
			}

			// A block whose stamp is stale is skipped by a later
			// generation's reduction, and when the worker touches it again
			// it is re-stamped without zeroing — sound because it is
			// already all-zero.
			a.Begin(2)
			ReduceSpread(accums, block(target), target, 2)
			if nodes[at].Force != [3]float64{2, 4, 6} {
				t.Fatal("a stale-generation buffer was folded again")
			}
			a.SpreadStencil(pointStencil(3, 1, 1), f, 1)
			if a.stamp[target] != 2 || a.blocks[target][at-target*tc.blockLen] != f {
				t.Fatal("re-stamped buffer did not start from zero")
			}

			// Contributions to a block the worker owns go straight to the
			// grid and allocate nothing.
			if tc.owner != nil {
				own := tc.l.Idx(0, 0, 0)
				a.SpreadStencil(pointStencil(0, 0, 0), f, 1)
				if nodes[own].Force != f || a.blocks[blockOf(0, 0, 0)] != nil {
					t.Fatal("owner-direct contribution was buffered")
				}
				// The same node through the non-owning worker is buffered.
				accums[1].Begin(2)
				accums[1].SpreadStencil(pointStencil(0, 0, 0), f, 1)
				if nodes[own].Force != f || accums[1].blocks[blockOf(0, 0, 0)] == nil {
					t.Fatal("non-owner contribution bypassed the buffer")
				}
			}
		})
	}
}
