package crosscheck

import (
	"fmt"
	"math"

	"lbmib"
)

// Physics-oracle thresholds. They are deliberately loose: the oracles
// exist to catch wrong physics (an indexing bug, a dropped term, an
// unstable update), not to re-derive the solver's accuracy.
const (
	// massRelTol bounds the relative drift of total mass. Collision,
	// periodic streaming and halfway bounce-back (including Ladd's moving
	// lid, whose correction terms cancel pairwise at each source node)
	// conserve mass exactly, so any drift is floating-point accumulation.
	massRelTol = 1e-8
	// maxSpeed is the unphysical-velocity guard; valid lattice flows stay
	// well below the speed of sound cₛ ≈ 0.577.
	maxSpeed = 0.5
	// arcLow/arcHigh bound each fiber's arclength relative to its rest
	// length: an exploding or collapsing structure signals a force or
	// interpolation bug long before the fluid goes non-finite.
	arcLow, arcHigh = 0.5, 2.0
	// minBodyForce / minLidSpeed gate the momentum-sign oracle: below
	// these magnitudes the driven signal is too close to accumulated
	// rounding to have a trustworthy sign.
	minBodyForce = 5e-6
	minLidSpeed  = 1e-3
)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkInvariants applies the always-on physics oracles to a captured
// state: finite fields, subsonic velocities, mass conservation relative
// to the initial mass m0 within relative tolerance massRelTol, and
// per-fiber arclength bounds.
func checkInvariants(c Case, st state, m0 float64) []string {
	var fails []string
	g := st.grid
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, v := range n.DF {
			if !finite(v) {
				return append(fails, fmt.Sprintf("node %d: non-finite distribution %g", i, v))
			}
		}
		if !finite(n.Rho) || !finite(n.Vel[0]) || !finite(n.Vel[1]) || !finite(n.Vel[2]) {
			return append(fails, fmt.Sprintf("node %d: non-finite moments ρ=%g u=%v", i, n.Rho, n.Vel))
		}
	}
	if v := g.MaxVelocity(); v > maxSpeed {
		fails = append(fails, fmt.Sprintf("max |u| = %.3g exceeds %.2g (unstable flow)", v, maxSpeed))
	}
	if m := g.TotalMass(); math.Abs(m-m0) > massRelTol*math.Abs(m0) {
		fails = append(fails, fmt.Sprintf("total mass drifted: %.17g → %.17g (rel %.3e)",
			m0, m, math.Abs(m-m0)/math.Abs(m0)))
	}

	for si, sx := range st.sheetX {
		for _, p := range sx {
			if !finite(p[0]) || !finite(p[1]) || !finite(p[2]) {
				return append(fails, fmt.Sprintf("sheet %d: non-finite node position %v", si, p))
			}
		}
		sc := c.Config.Sheets[si]
		rest := sc.Height // a fiber spans the sheet height at rest
		for f := 0; f < sc.NumFibers; f++ {
			arc := 0.0
			base := f * sc.NodesPerFiber
			for n := 1; n < sc.NodesPerFiber; n++ {
				a, b := sx[base+n-1], sx[base+n]
				dx, dy, dz := b[0]-a[0], b[1]-a[1], b[2]-a[2]
				arc += math.Sqrt(dx*dx + dy*dy + dz*dz)
			}
			if arc < arcLow*rest || arc > arcHigh*rest {
				fails = append(fails, fmt.Sprintf(
					"sheet %d fiber %d: arclength %.4g outside [%.2g, %.2g]×rest %.4g",
					si, f, arc, arcLow, arcHigh, rest))
			}
		}
	}
	return fails
}

// checkMomentumSign verifies that net macroscopic momentum Σ ρu points
// the way the single driver pushes it. It only fires for fluid-only
// cases driven by exactly one of {body force, moving lid} with
// magnitudes above the rounding floor — competing drivers (or an
// immersed structure exchanging momentum) make the sign genuinely
// ambiguous — and only along periodic axes: with walls normal to the
// driven direction the box is closed, bulk flow cannot develop, and the
// net momentum sits near zero with an unreliable sign. (Raw distribution
// momentum would be worse still: under Guo forcing it carries a −F/2
// per-node offset, which in a closed direction dominates and points
// against the force.)
func checkMomentumSign(c Case, st state) []string {
	cfg := c.Config
	if len(cfg.Sheets) > 0 {
		return nil
	}
	hasForce := cfg.BodyForce != [3]float64{}
	hasLid := cfg.LidVelocity != [3]float64{}
	if hasForce == hasLid {
		return nil
	}
	periodic := [3]bool{
		cfg.BoundaryX == lbmib.Periodic,
		cfg.BoundaryY == lbmib.Periodic,
		cfg.BoundaryZ == lbmib.Periodic,
	}
	var mom [3]float64
	g := st.grid
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for d := 0; d < 3; d++ {
			mom[d] += n.Rho * n.Vel[d]
		}
	}
	var fails []string
	if hasForce {
		for d := 0; d < 3; d++ {
			f := cfg.BodyForce[d]
			if !periodic[d] || math.Abs(f) < minBodyForce {
				continue
			}
			if mom[d]*f <= 0 {
				fails = append(fails, fmt.Sprintf(
					"momentum[%d] = %.3e opposes body force %.3e", d, mom[d], f))
			}
		}
		return fails
	}
	// Moving lid: the lid drags the fluid along its in-plane velocity.
	for d := 0; d < 2; d++ {
		v := cfg.LidVelocity[d]
		if !periodic[d] || math.Abs(v) < minLidSpeed {
			continue
		}
		if mom[d]*v <= 0 {
			fails = append(fails, fmt.Sprintf(
				"momentum[%d] = %.3e opposes lid velocity %.3g", d, mom[d], v))
		}
	}
	return fails
}
