package crosscheck

import (
	"fmt"
	"math"

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
	pc := c
	cfg := c.Config
	cfg.NX, cfg.NY = c.Config.NY, c.Config.NX
	cfg.BoundaryX, cfg.BoundaryY = c.Config.BoundaryY, c.Config.BoundaryX
	cfg.BodyForce[0], cfg.BodyForce[1] = c.Config.BodyForce[1], c.Config.BodyForce[0]
	cfg.LidVelocity[0], cfg.LidVelocity[1] = c.Config.LidVelocity[1], c.Config.LidVelocity[0]
	pc.Config = cfg

	got, err := seqFinal(pc)
	if err != nil {
		return fmt.Sprintf("metamorphic permute-xy: %v", err)
	}
	a, b := ref.grid, got.grid
	maxAbs := 0.0
	curA, curB := a.Cur(), b.Cur()
	for x := 0; x < a.NX; x++ {
		for y := 0; y < a.NY; y++ {
			for z := 0; z < a.NZ; z++ {
				na, nb := a.At(x, y, z), b.At(y, x, z)
				dfa, dfb := na.Buf(curA), nb.Buf(curB)
				for q := 0; q < lattice.Q; q++ {
					maxAbs = math.Max(maxAbs, math.Abs(dfa[q]-dfb[permXYDirs[q]]))
				}
				maxAbs = math.Max(maxAbs, math.Abs(na.Rho-nb.Rho))
				maxAbs = math.Max(maxAbs, math.Abs(na.Vel[0]-nb.Vel[1]))
				maxAbs = math.Max(maxAbs, math.Abs(na.Vel[1]-nb.Vel[0]))
				maxAbs = math.Max(maxAbs, math.Abs(na.Vel[2]-nb.Vel[2]))
			}
		}
	}
	if maxAbs > r.MetaTol {
		return fmt.Sprintf("metamorphic permute-xy: max|Δ|=%.3e exceeds %.1e", maxAbs, r.MetaTol)
	}
	return ""
}

// checkMirrorX reflects the problem about the x mid-plane (negating the
// x components of the body force and lid velocity), reruns it, and
// demands the result be the mirror image of the reference. Both
// periodic wrap and halfway bounce-back walls are reflection-symmetric.
func (r *Runner) checkMirrorX(c Case, ref state) string {
	mc := c
	cfg := c.Config
	cfg.BodyForce[0] = -cfg.BodyForce[0]
	cfg.LidVelocity[0] = -cfg.LidVelocity[0]
	mc.Config = cfg

	got, err := seqFinal(mc)
	if err != nil {
		return fmt.Sprintf("metamorphic mirror-x: %v", err)
	}
	a, b := ref.grid, got.grid
	maxAbs := 0.0
	curA, curB := a.Cur(), b.Cur()
	for x := 0; x < a.NX; x++ {
		for y := 0; y < a.NY; y++ {
			for z := 0; z < a.NZ; z++ {
				na, nb := a.At(x, y, z), b.At(a.NX-1-x, y, z)
				dfa, dfb := na.Buf(curA), nb.Buf(curB)
				for q := 0; q < lattice.Q; q++ {
					maxAbs = math.Max(maxAbs, math.Abs(dfa[q]-dfb[mirrorXDir[q]]))
				}
				maxAbs = math.Max(maxAbs, math.Abs(na.Rho-nb.Rho))
				maxAbs = math.Max(maxAbs, math.Abs(na.Vel[0]+nb.Vel[0]))
				maxAbs = math.Max(maxAbs, math.Abs(na.Vel[1]-nb.Vel[1]))
				maxAbs = math.Max(maxAbs, math.Abs(na.Vel[2]-nb.Vel[2]))
			}
		}
	}
	if maxAbs > r.MetaTol {
		return fmt.Sprintf("metamorphic mirror-x: max|Δ|=%.3e exceeds %.1e", maxAbs, r.MetaTol)
	}
	return ""
}
