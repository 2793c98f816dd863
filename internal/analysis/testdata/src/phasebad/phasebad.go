// Package phasebad exercises the phasecheck analyzer: a mini step loop
// with a conditionally folded barrier spanned by a cross-thread
// write→read conflict. The first kernel writes neighbor velocities, the
// second reads its own — so the mid-step barrier separates a neighbor
// write from its readers and folding it (as the fluid-only guard does)
// breaks the bitwise contract. The analyzer must flag the fold guard.
package phasebad

import "lbmib/internal/grid"

// Barrier sites of the mini engine, in step order.
const (
	SiteMid = iota
	SiteOwn
	SiteEnd
)

type mini struct {
	Fluid  *grid.Grid
	fibers int
}

// TotalFibers is the structure's fiber count; the guarded barriers below
// are kept only when it is positive and folded in fluid-only runs.
func (m *mini) TotalFibers() int { return m.fibers }

func (m *mini) waitBarrier(site, tid int) {}

func (m *mini) timeStep(tid, lo, hi int) {
	g := m.Fluid
	for i := lo; i < hi; i++ {
		g.Nodes[i+1].Vel[0] += g.Nodes[i].Rho
	}
	if m.TotalFibers() > 0 {
		m.waitBarrier(SiteMid, tid) //want:phasecheck
	}
	for i := lo; i < hi; i++ {
		g.Nodes[i].Rho += g.Nodes[i].Vel[0]
	}
	// This folded barrier is safe — both sides touch only thread-own
	// nodes — so the analyzer must stay silent about it: no marker.
	if m.TotalFibers() > 0 {
		m.waitBarrier(SiteOwn, tid)
	}
	for i := lo; i < hi; i++ {
		g.Nodes[i].Force[0] = g.Nodes[i].Rho
	}
	m.waitBarrier(SiteEnd, tid)
}
