// Package paritybad is lbmib-lint's golden-bad corpus for paritycheck:
// a layout's distribution array read raw, outside the layouts and the
// in-place engines, where an engine may have left it in the swapped
// phase.
package paritybad

import (
	"lbmib/internal/core"
	"lbmib/internal/cube"
	"lbmib/internal/grid"
)

// engine stands for an in-place engine: it steps g and knows its phase.
type engine struct {
	g       *grid.Grid
	swapped bool
}

// Live is the canonicalizing accessor: g, natural.
func (e *engine) Live() *grid.Grid {
	e.swapped = false
	return e.g
}

// rawRead sums the engine's array without canonicalizing it.
func rawRead(e *engine) float64 {
	t := 0.0
	for i := range e.g.Macros() {
		t += e.g.Dist()[i][0] //want:paritycheck
	}
	return t
}

// rawWrite scribbles into a cube layout's array directly.
func rawWrite(l *cube.Layout, q int, v float64) {
	l.Dist()[0][q] = v //want:paritycheck
}

// accessorOK is clean: the canonicalizing accessor is the contract.
func accessorOK(e *engine) float64 {
	return e.Live().Dist()[0][0]
}

// accessorVarOK is clean: g holds only the accessor's result.
func accessorVarOK(e *engine) float64 {
	g := e.Live()
	return g.Dist()[0][0]
}

// snapshotOK is clean: a snapshot is not an engine's storage.
func snapshotOK(s *grid.Snapshot) float64 {
	return s.Nodes[0].Buf(s.Cur())[0] + s.Nodes[0].DF[0]
}

// reassigned held the accessor's result once, then the raw grid.
func reassigned(e *engine) float64 {
	g := e.Live()
	t := g.Macros()[0].Rho
	g = e.g
	return t + g.Dist()[0][0] //want:paritycheck
}

// checkpointRaw is the seeded defect, written against the contract: a
// checkpoint writer handed an engine's layout that streams it out slot
// by slot as if every node's slots held its own distributions. On an
// in-place engine that holds only in the natural phase, so after an odd
// step count the checkpoint stores each value in its neighbour's slot —
// the silent corruption paritycheck exists to catch, even though every
// value written is a real distribution and the mass sums right.
func checkpointRaw(l core.Layout, out []float64) []float64 {
	for _, f := range l.Dist() { //want:paritycheck
		out = append(out, f[:]...)
	}
	return out
}
