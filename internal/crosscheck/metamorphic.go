package crosscheck

import (
	"fmt"
	"math"

	"lbmib"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// Metamorphic oracles: the D3Q19 lattice is closed under axis
// permutations and reflections, so transforming a configuration by such
// a symmetry and transforming the result back must agree with the
// original run. The transformed run sums moments over a permuted
// direction order, which reorders floating-point reductions, so the
// comparison is to MetaTol rather than bitwise.

// dirMap builds the D3Q19 direction permutation induced by a lattice
// symmetry f (a map on discrete velocities).
func dirMap(f func([3]int) [3]int) [lattice.Q]int {
	var m [lattice.Q]int
	for q := 0; q < lattice.Q; q++ {
		e := f([3]int{int(lattice.E[q][0]), int(lattice.E[q][1]), int(lattice.E[q][2])})
		found := -1
		for p := 0; p < lattice.Q; p++ {
			if int(lattice.E[p][0]) == e[0] && int(lattice.E[p][1]) == e[1] && int(lattice.E[p][2]) == e[2] {
				found = p
				break
			}
		}
		if found < 0 {
			panic("crosscheck: lattice not closed under symmetry")
		}
		m[q] = found
	}
	return m
}

var (
	permXYDirs = dirMap(func(e [3]int) [3]int { return [3]int{e[1], e[0], e[2]} })
	mirrorXDir = dirMap(func(e [3]int) [3]int { return [3]int{-e[0], e[1], e[2]} })
)

// metamorphic runs the symmetry oracles for a fluid-only case against
// the already-computed sequential reference state.
func (r *Runner) metamorphic(c Case, ref state) []string {
	var fails []string
	if msg := r.checkPermuteXY(c, ref); msg != "" {
		fails = append(fails, msg)
	}
	if msg := r.checkMirrorX(c, ref); msg != "" {
		fails = append(fails, msg)
	}
	return fails
}

// seqFinal runs the (possibly transformed) case on the sequential engine
// and returns its final state. The transformed runs are scratch work, so
// no flight recorder is attached (hence the zero Runner).
func seqFinal(c Case) (state, error) {
	e, err := (&Runner{}).newEngine(c, EngineSequential)
	if err != nil {
		return state{}, err
	}
	e.Run(c.Steps)
	st := capture(e)
	e.Close()
	return st, nil
}

// checkPermuteXY swaps the x and y axes of the whole problem — grid
// shape, boundaries, body force and lid components — reruns it, and
// demands the result be the axis-swapped image of the reference.
func (r *Runner) checkPermuteXY(c Case, ref state) string {
	cfg := c.Config
	cfg.NX, cfg.NY = c.Config.NY, c.Config.NX
	cfg.BoundaryX, cfg.BoundaryY = c.Config.BoundaryY, c.Config.BoundaryX
	cfg.BodyForce[0], cfg.BodyForce[1] = c.Config.BodyForce[1], c.Config.BodyForce[0]
	cfg.LidVelocity[0], cfg.LidVelocity[1] = c.Config.LidVelocity[1], c.Config.LidVelocity[0]
	return r.checkImage("permute-xy", c, cfg, ref, &permXYDirs,
		func(b *grid.Snapshot, x, y, z int) *grid.Node { return b.At(y, x, z) },
		func(a, b [3]float64) [3]float64 { return [3]float64{a[0] - b[1], a[1] - b[0], a[2] - b[2]} })
}

// checkMirrorX reflects the problem about the x mid-plane (negating the
// x components of the body force and lid velocity), reruns it, and
// demands the result be the mirror image of the reference. Both
// periodic wrap and halfway bounce-back walls are reflection-symmetric.
func (r *Runner) checkMirrorX(c Case, ref state) string {
	cfg := c.Config
	cfg.BodyForce[0] = -cfg.BodyForce[0]
	cfg.LidVelocity[0] = -cfg.LidVelocity[0]
	return r.checkImage("mirror-x", c, cfg, ref, &mirrorXDir,
		func(b *grid.Snapshot, x, y, z int) *grid.Node { return b.At(b.NX-1-x, y, z) },
		func(a, b [3]float64) [3]float64 { return [3]float64{a[0] + b[0], a[1] - b[1], a[2] - b[2]} })
}

// checkImage runs the case transformed to cfg and demands that every
// node (x, y, z) of the reference equal, to MetaTol, its image node of
// the result with the directions mapped by dirs; velDiff returns the
// three velocity differences of a node and its image.
func (r *Runner) checkImage(name string, c Case, cfg lbmib.Config, ref state, dirs *[lattice.Q]int,
	image func(b *grid.Snapshot, x, y, z int) *grid.Node, velDiff func(a, b [3]float64) [3]float64) string {
	c.Config = cfg
	got, err := seqFinal(c)
	if err != nil {
		return fmt.Sprintf("metamorphic %s: %v", name, err)
	}
	a, maxAbs := ref.grid, 0.0
	for x := 0; x < a.NX; x++ {
		for y := 0; y < a.NY; y++ {
			for z := 0; z < a.NZ; z++ {
				na, nb := a.At(x, y, z), image(got.grid, x, y, z)
				for q := 0; q < lattice.Q; q++ {
					maxAbs = math.Max(maxAbs, math.Abs(na.DF[q]-nb.DF[dirs[q]]))
				}
				maxAbs = math.Max(maxAbs, math.Abs(na.Rho-nb.Rho))
				for _, d := range velDiff(na.Vel, nb.Vel) {
					maxAbs = math.Max(maxAbs, math.Abs(d))
				}
			}
		}
	}
	if maxAbs > r.MetaTol {
		return fmt.Sprintf("metamorphic %s: max|Δ|=%.3e exceeds %.1e", name, maxAbs, r.MetaTol)
	}
	return ""
}
