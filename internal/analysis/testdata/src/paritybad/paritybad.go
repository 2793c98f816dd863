// Package paritybad is lbmib-lint's golden-bad corpus for paritycheck:
// a layout's distribution arrays indexed by a literal parity outside the
// grid/cube accessor layer, which reads the wrong time step's
// distributions once an engine has swapped.
package paritybad

import (
	"lbmib/internal/core"
	"lbmib/internal/cube"
	"lbmib/internal/grid"
)

// present names parity 0 as a constant; it is still a literal parity.
const present = 0

// rawRead bypasses Dist(Cur()) on both buffers.
func rawRead(g *grid.Grid) float64 {
	t := 0.0
	for i := range g.Macros() {
		t += g.Dist(0)[i][0] //want:paritycheck
		t += g.Dist(1)[i][0] //want:paritycheck
	}
	return t
}

// rawWrite scribbles into the "new" buffer of a cube layout directly.
func rawWrite(l *cube.Layout, q int, v float64) {
	l.Dist(1)[0][q] = v //want:paritycheck
}

// accessorOK is clean: the parity-aware accessor is the contract.
func accessorOK(g *grid.Grid) float64 {
	return g.Dist(g.Cur())[0][0] + g.Dist(1 - g.Cur())[0][0]
}

// snapshotOK is clean: a snapshot is not double-buffered storage.
func snapshotOK(s *grid.Snapshot) float64 {
	return s.Nodes[0].Buf(s.Cur())[0] + s.Nodes[0].DF[0]
}

// fusedSweepRaw is the seeded defect, written against the contract: a
// fused collide+stream pull sweep that assumes buffer 0 is present and
// buffer 1 next. On the double-buffered engines that holds only while
// the parity bit is 0, so after the first swap this sweep collides the
// previous step's populations and pulls into the buffer it just read —
// exactly the silent corruption paritycheck exists to catch, even when
// the whole update is a single loop nest with no separate stream pass.
func fusedSweepRaw(l core.Layout, delta [19]int, tau float64) {
	inv := 1 / tau
	cur := l.Dist(present) //want:paritycheck
	for i := range cur {
		for q := range cur[i] {
			cur[i][q] -= inv * cur[i][q]
		}
	}
	next := l.Dist(1) //want:paritycheck
	for i := range next {
		for q, d := range delta {
			if src := i - d; src >= 0 && src < len(cur) {
				next[i][q] = cur[src][q]
			}
		}
	}
}
