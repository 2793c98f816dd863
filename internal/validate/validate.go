// Package validate compares simulation states across solver
// implementations. The paper verifies every parallel result "by comparing
// the new result to that of the sequential implementation" (Section VI-A);
// this package is that comparison: per-field maximum absolute difference
// and relative L2 distance over fluid distributions, velocities, densities
// and fiber positions.
//
// Every float64 engine equals the sequential reference bit for bit at any
// thread count (the owners of the fluid spread in the reference's order),
// so an engine comparison demands a zero difference; DefaultTol is for
// comparisons whose arithmetic differs.
package validate

import (
	"fmt"
	"math"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// DefaultTol is an acceptance threshold for states computed by different
// arithmetic: generous enough for reordering O(10⁴) floating-point
// accumulations, far below any physical signal.
const DefaultTol = 1e-9

// Diff summarizes the difference between two states.
type Diff struct {
	MaxAbs float64 // largest absolute elementwise difference
	RelL2  float64 // ‖a−b‖₂ / (1 + ‖a‖₂)
	Count  int     // elements compared
	Where  string  // location of the maximum difference
}

// Within reports whether both difference measures are at most tol.
func (d Diff) Within(tol float64) bool { return d.MaxAbs <= tol && d.RelL2 <= tol }

// String formats the diff for reports.
func (d Diff) String() string {
	return fmt.Sprintf("max|Δ|=%.3e relL2=%.3e over %d values (at %s)", d.MaxAbs, d.RelL2, d.Count, d.Where)
}

type accum struct {
	maxAbs float64
	where  string
	sumSq  float64
	normSq float64
	count  int
}

func (a *accum) add(va, vb float64, where func() string) {
	d := va - vb
	if ad := math.Abs(d); ad > a.maxAbs {
		a.maxAbs = ad
		a.where = where()
	}
	a.sumSq += d * d
	a.normSq += va * va
	a.count++
}

func (a *accum) diff() Diff {
	return Diff{
		MaxAbs: a.maxAbs,
		RelL2:  math.Sqrt(a.sumSq) / (1 + math.Sqrt(a.normSq)),
		Count:  a.count,
		Where:  a.where,
	}
}

// Fluid is a fluid state validate reads node by node in x-major order:
// node i's present distributions and its record. A *grid.Grid (an
// engine's Live grid, in the natural phase) and a *grid.Snapshot are
// both one.
type Fluid interface {
	Dims() (nx, ny, nz int)
	Record(i int) ([lattice.Q]float64, grid.Macro)
}

// Grids compares the full state (distributions, velocity, density, force)
// of two same-shaped fluid states. It returns an error on shape mismatch.
func Grids(a, b Fluid) (Diff, error) { return grids(a, b, true) }

// GridsPhysics compares distributions, velocities and densities but not
// the force field. Between steps the force array is engine-defined scratch
// state — the sequential reference leaves kernel 4's spread forces in
// place while the swap engines fold the reset into the velocity update —
// so cross-engine equivalence is asserted on the physical fields only.
func GridsPhysics(a, b Fluid) (Diff, error) { return grids(a, b, false) }

func grids(a, b Fluid, includeForce bool) (Diff, error) {
	ax, ay, az := a.Dims()
	bx, by, bz := b.Dims()
	if ax != bx || ay != by || az != bz {
		return Diff{}, fmt.Errorf("validate: grid shapes differ: %d×%d×%d vs %d×%d×%d", ax, ay, az, bx, by, bz)
	}
	var ac accum
	for i := 0; i < ax*ay*az; i++ {
		dfa, na := a.Record(i)
		dfb, nb := b.Record(i)
		idx := i
		loc := func(field string) func() string {
			return func() string { return fmt.Sprintf("node %d %s", idx, field) }
		}
		for q := range dfa {
			ac.add(dfa[q], dfb[q], loc("DF"))
		}
		for d := 0; d < 3; d++ {
			ac.add(na.Vel[d], nb.Vel[d], loc("Vel"))
			if includeForce {
				ac.add(na.Force[d], nb.Force[d], loc("Force"))
			}
		}
		ac.add(na.Rho, nb.Rho, loc("Rho"))
	}
	return ac.diff(), nil
}

// Sheets compares positions, velocities and elastic forces of two
// same-shaped fiber sheets.
func Sheets(a, b *fiber.Sheet) (Diff, error) {
	if a.NumFibers != b.NumFibers || a.NodesPerFiber != b.NodesPerFiber {
		return Diff{}, fmt.Errorf("validate: sheet shapes differ: %d×%d vs %d×%d",
			a.NumFibers, a.NodesPerFiber, b.NumFibers, b.NodesPerFiber)
	}
	var ac accum
	for i := range a.X {
		idx := i
		loc := func(field string) func() string {
			return func() string { return fmt.Sprintf("fiber node %d %s", idx, field) }
		}
		for d := 0; d < 3; d++ {
			ac.add(a.X[i][d], b.X[i][d], loc("X"))
			ac.add(a.Vel[i][d], b.Vel[i][d], loc("Vel"))
			ac.add(a.Force[i][d], b.Force[i][d], loc("Force"))
		}
	}
	return ac.diff(), nil
}
