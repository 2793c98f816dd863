package core

import (
	"lbmib/internal/grid"
	"lbmib/internal/ibm"
)

// SpreadAccum is one worker's private force-accumulation store for
// lock-free parallel spreading (DESIGN.md §13), keyed by layout block.
// It is sparse: a block's buffer is allocated the first time the worker
// spreads into that block and kept for the solver's lifetime, so a
// localized structure costs a few blocks per worker rather than a
// full-grid force copy each.
//
// stamp[b] records which spread generation blocks[b]'s contents belong
// to. Generations are never reused and ReduceSpread zeroes every block it
// consumes, so any block whose stamp is not the current generation is
// known all-zero — which is what lets accumulation skip per-step zeroing
// entirely.
//
// A worker implements ibm.ForceAccumulator with it: contributions to
// blocks the worker owns go straight to the grid — the owner is the only
// writer of its blocks' forces until the reduction — and all others land
// in the private buffers. Both destinations are filled in the worker's
// fixed fiber order, which is half of the determinism guarantee
// (ReduceSpread's sweep order is the other half).
type SpreadAccum struct {
	macro []grid.Macro
	// blk and off split the layout's separable index per axis into block
	// and in-block parts: node (x, y, z) is slot off[0][x]+off[1][y]+off[2][z]
	// (below blockLen: its z-fastest position inside the box) of block
	// blk[0][x]+blk[1][y]+blk[2][z]. SpreadStencil looks a stencil's twelve
	// coordinates up in them once, so its 64-point loop only adds.
	blk, off [3][]int
	blockLen int
	owner    []int // owner[b] is block b's owning worker; nil when no block is worker-owned
	tid      int
	blocks   [][][3]float64
	stamp    []int
	gen      int
}

// NewSpreadAccums builds one accumulator per worker over l's blocks.
// owner maps each block to the worker that alone writes it during
// spreading (the cube engine's cube2thread); nil means spreading workers
// own no fluid (the loop-parallel engine assigns fibers, not planes, to
// its spreading threads), so every contribution is buffered.
func NewSpreadAccums(l Layout, workers int, owner []int) []*SpreadAccum {
	_, e := l.BlockBox(0)
	blockLen := e[0] * e[1] * e[2]
	macro, blk, off := l.Macros(), grid.AxisIndex(l), grid.AxisIndex(l)
	for a := range blk {
		for c, idx := range blk[a] {
			blk[a][c], off[a][c] = idx/blockLen, idx%blockLen
		}
	}
	numBlocks := len(macro) / blockLen
	accums := make([]*SpreadAccum, workers)
	for tid := range accums {
		accums[tid] = &SpreadAccum{
			macro: macro, blk: blk, off: off, blockLen: blockLen, owner: owner, tid: tid,
			blocks: make([][][3]float64, numBlocks),
			stamp:  make([]int, numBlocks),
		}
	}
	return accums
}

// Begin opens spread generation gen: contributions until the next Begin
// are stamped with it. The worker calls it before spreading.
func (a *SpreadAccum) Begin(gen int) { a.gen = gen }

// block returns block b's buffer stamped for the current generation,
// allocating it on first touch. A re-stamped buffer needs no zeroing
// (see the invariant above).
func (a *SpreadAccum) block(b int) [][3]float64 {
	if a.stamp[b] != a.gen {
		if a.blocks[b] == nil {
			a.blocks[b] = make([][3]float64, a.blockLen)
		}
		a.stamp[b] = a.gen
	}
	return a.blocks[b]
}

// SpreadStencil implements ibm.ForceAccumulator: grid.Coupling's scatter
// with the destination chosen per point.
//
//lint:allow floatcheck -- exact-zero delta-function weights skip whole stencil planes; the product they'd contribute is exactly 0
func (a *SpreadAccum) SpreadStencil(st ibm.Stencil, F [3]float64, area float64) {
	blk, off := grid.ResolveStencil(&st, &a.blk), grid.ResolveStencil(&st, &a.off)
	f0, f1, f2 := F[0], F[1], F[2]
	cur, buf := -1, [][3]float64(nil) // the last point's block, and its buffer unless this worker owns it
	for i, wx := range &st.Wx {
		if wx == 0 {
			continue
		}
		for j := range st.Wy {
			wxy := wx * st.Wy[j]
			if wxy == 0 {
				continue
			}
			bij, oij := blk[0][i]+blk[1][j], off[0][i]+off[1][j]
			for k := range st.Wz {
				w := wxy * st.Wz[k] * area
				if w == 0 {
					continue
				}
				b, o := bij+blk[2][k], oij+off[2][k]
				if b != cur {
					cur, buf = b, nil
					if a.owner == nil || a.owner[b] != a.tid {
						buf = a.block(b)
					}
				}
				var p *[3]float64
				if buf != nil {
					p = &buf[o]
				} else {
					p = &a.macro[b*a.blockLen+o].Force
				}
				p[0] += float64(f0 * w)
				p[1] += float64(f1 * w)
				p[2] += float64(f2 * w)
			}
		}
	}
}

// ReduceSpread folds every worker's generation-gen contributions for
// block b into m, the block's records, and zeroes the consumed
// buffers. The sweep visits workers in ascending index, so at a fixed
// worker count the floating-point accumulation order — owner-direct
// writes in fiber order, then worker 0's buffer, then worker 1's, … —
// is identical from run to run. The caller must be the only thread
// touching block b, after a barrier that orders every worker's
// accumulation before it.
func ReduceSpread(accums []*SpreadAccum, m []grid.Macro, b, gen int) {
	for _, a := range accums {
		if a.stamp[b] != gen {
			continue
		}
		buf := a.blocks[b]
		for i := range m {
			m[i].Force[0] += buf[i][0]
			m[i].Force[1] += buf[i][1]
			m[i].Force[2] += buf[i][2]
			buf[i] = [3]float64{}
		}
	}
}
