package ibm_test

import (
	"math"
	"testing"

	"lbmib/internal/grid"
	"lbmib/internal/ibm"
)

// The coupling properties are asserted on the body the engines run: a
// periodic slab grid, whose embedded grid.Coupling implements
// ibm.ForceAccumulator and ibm.VelocitySampler.

// touched lists the nodes of g that hold a non-zero force.
func touched(g *grid.Grid) map[[3]int][3]float64 {
	m := map[[3]int][3]float64{}
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			for z := 0; z < g.NZ; z++ {
				if f := g.At(x, y, z).Force; f != ([3]float64{}) {
					m[[3]int{x, y, z}] = f
				}
			}
		}
	}
	return m
}

func setVel(g *grid.Grid, vel func(x, y, z int) [3]float64) {
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			for z := 0; z < g.NZ; z++ {
				g.At(x, y, z).Vel = vel(x, y, z)
			}
		}
	}
}

// Spreading conserves total force: Σ_fluid f = F · area.
func TestSpreadConservesForce(t *testing.T) {
	g := grid.New(32, 32, 32)
	F := [3]float64{0.3, -0.7, 0.2}
	area := 0.25
	ibm.Spread(g, [3]float64{10.37, 11.91, 12.5}, F, area)
	var tot [3]float64
	for _, f := range touched(g) {
		tot[0] += f[0]
		tot[1] += f[1]
		tot[2] += f[2]
	}
	for d := 0; d < 3; d++ {
		if math.Abs(tot[d]-F[d]*area) > 1e-12 {
			t.Fatalf("spread total[%d] = %g, want %g", d, tot[d], F[d]*area)
		}
	}
}

func TestSpreadTouchesAtMost64Nodes(t *testing.T) {
	g := grid.New(32, 32, 32)
	ibm.Spread(g, [3]float64{20.5, 20.5, 20.5}, [3]float64{1, 0, 0}, 1)
	n := len(touched(g))
	if n > 64 {
		t.Fatalf("spread touched %d nodes, influential domain is 64", n)
	}
	if n == 0 {
		t.Fatal("spread touched no nodes")
	}
}

func TestSpreadOnLatticePointTouches27(t *testing.T) {
	// Exactly on a lattice point, the outermost stencil layer has zero
	// weight (φ(2)=0, φ(-1 offset edge)=0), so only 3³ nodes receive force.
	g := grid.New(32, 32, 32)
	ibm.Spread(g, [3]float64{20, 21, 22}, [3]float64{1, 1, 1}, 1)
	if n := len(touched(g)); n != 27 {
		t.Fatalf("spread on lattice point touched %d nodes, want 27", n)
	}
}

func TestSpreadWrapsPeriodically(t *testing.T) {
	g := grid.New(8, 8, 8)
	ibm.Spread(g, [3]float64{0.1, 0.1, 0.1}, [3]float64{1, 0, 0}, 1)
	var tot float64
	found := false
	for k, f := range touched(g) {
		tot += f[0]
		// Some weight must have landed on the high-index side of the box.
		if k[0] == 7 {
			found = true
		}
	}
	if math.Abs(tot-1) > 1e-12 {
		t.Fatalf("periodic spread lost force: total = %g, want 1", tot)
	}
	if !found {
		t.Fatal("no force wrapped around to x = n-1")
	}
}

func TestInterpolateConstantField(t *testing.T) {
	g := grid.New(32, 32, 32)
	want := [3]float64{0.4, -0.1, 0.9}
	setVel(g, func(x, y, z int) [3]float64 { return want })
	u := ibm.Interpolate(g, [3]float64{9.73, 14.21, 11.08})
	for d := 0; d < 3; d++ {
		if math.Abs(u[d]-want[d]) > 1e-12 {
			t.Fatalf("constant field interpolation u[%d] = %g, want %g", d, u[d], want[d])
		}
	}
}

// The 4-point kernel reproduces linear velocity fields exactly (first
// moment condition).
func TestInterpolateLinearFieldExactly(t *testing.T) {
	g := grid.New(32, 32, 40)
	setVel(g, func(x, y, z int) [3]float64 {
		return [3]float64{0.01 * float64(x), 0.02 * float64(y), -0.005 * float64(z)}
	})
	pos := [3]float64{20.37, 25.64, 30.11}
	u := ibm.Interpolate(g, pos)
	want := [3]float64{0.01 * pos[0], 0.02 * pos[1], -0.005 * pos[2]}
	for d := 0; d < 3; d++ {
		if math.Abs(u[d]-want[d]) > 1e-12 {
			t.Fatalf("linear field u[%d] = %g, want %g", d, u[d], want[d])
		}
	}
}

// Spread and Interpolate are adjoint: for any fluid field u and fiber force
// F, ⟨spread(F), u⟩_fluid = ⟨F, interp(u)⟩_fiber · area. This is the
// discrete statement that the coupling conserves energy transfer.
func TestSpreadInterpolateAdjoint(t *testing.T) {
	g := grid.New(32, 32, 32)
	// A deterministic pseudo-random velocity field on the stencil support.
	setVel(g, func(x, y, z int) [3]float64 {
		if x < 8 || x >= 16 || y < 8 || y >= 16 || z < 8 || z >= 16 {
			return [3]float64{}
		}
		return [3]float64{
			math.Sin(float64(x*7 + y)),
			math.Cos(float64(y*3 + z)),
			math.Sin(float64(z*5 + x)),
		}
	})
	pos := [3]float64{11.3, 12.7, 10.9}
	F := [3]float64{0.2, -0.4, 0.6}
	area := 0.5

	ibm.Spread(g, pos, F, area)
	lhs := 0.0
	for k, f := range touched(g) {
		u := g.At(k[0], k[1], k[2]).Vel
		lhs += f[0]*u[0] + f[1]*u[1] + f[2]*u[2]
	}
	u := ibm.Interpolate(g, pos)
	rhs := area * (F[0]*u[0] + F[1]*u[1] + F[2]*u[2])
	if math.Abs(lhs-rhs) > 1e-12*(1+math.Abs(lhs)) {
		t.Fatalf("adjointness violated: %g vs %g", lhs, rhs)
	}
}

func TestSpreadStencilMatchesSpread(t *testing.T) {
	a, b := grid.New(32, 32, 32), grid.New(32, 32, 32)
	pos := [3]float64{5.21, 6.78, 7.99}
	F := [3]float64{1, 2, 3}
	ibm.Spread(a, pos, F, 0.7)
	var st ibm.Stencil
	st.Compute(pos)
	b.SpreadStencil(st, F, 0.7)
	ta, tb := touched(a), touched(b)
	if len(ta) != len(tb) {
		t.Fatalf("node counts differ: %d vs %d", len(ta), len(tb))
	}
	for k, v := range ta {
		if tb[k] != v {
			t.Fatalf("force differs at %v", k)
		}
	}
}

func BenchmarkSpread(b *testing.B) {
	g := grid.New(32, 32, 32)
	for i := 0; i < b.N; i++ {
		ibm.Spread(g, [3]float64{20.3, 21.7, 22.1}, [3]float64{1, 2, 3}, 1)
	}
}

func BenchmarkInterpolate(b *testing.B) {
	g := grid.New(32, 32, 32)
	setVel(g, func(x, y, z int) [3]float64 { return [3]float64{0.1, 0.2, 0.3} })
	var u [3]float64
	for i := 0; i < b.N; i++ {
		u = ibm.Interpolate(g, [3]float64{20.3, 21.7, 22.1})
	}
	_ = u
}
