package cube

import (
	"math"
	"testing"
	"testing/quick"

	"lbmib/internal/grid"
	"lbmib/internal/ibm"
	"lbmib/internal/lattice"
)

func mustLayout(t *testing.T, nx, ny, nz, k int) *Layout {
	t.Helper()
	l, err := NewLayout(nx, ny, nz, k)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLayoutRejectsBadShapes(t *testing.T) {
	cases := []struct{ nx, ny, nz, k int }{
		{0, 4, 4, 2},
		{4, 4, 4, 0},
		{4, 4, 4, -2},
		{6, 4, 4, 4}, // 6 % 4 != 0
		{4, 6, 4, 4},
		{4, 4, 6, 4},
	}
	for _, c := range cases {
		if _, err := NewLayout(c.nx, c.ny, c.nz, c.k); err == nil {
			t.Fatalf("NewLayout(%v) accepted invalid shape", c)
		}
	}
}

func TestLayoutCounts(t *testing.T) {
	l := mustLayout(t, 8, 12, 4, 4)
	if l.CX != 2 || l.CY != 3 || l.CZ != 1 {
		t.Fatalf("cube grid = %d×%d×%d, want 2×3×1", l.CX, l.CY, l.CZ)
	}
	if l.NumCubes() != 6 {
		t.Fatalf("NumCubes = %d, want 6", l.NumCubes())
	}
	if l.NumNodes() != 8*12*4 {
		t.Fatalf("NumNodes = %d", l.NumNodes())
	}
}

func TestIdxBijective(t *testing.T) {
	l := mustLayout(t, 8, 4, 8, 4)
	seen := make([]bool, l.NumNodes())
	for x := 0; x < 8; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 8; z++ {
				i := l.Idx(x, y, z)
				if i < 0 || i >= len(seen) || seen[i] {
					t.Fatalf("Idx(%d,%d,%d) = %d out of range or duplicate", x, y, z, i)
				}
				seen[i] = true
			}
		}
	}
}

func TestCubeNodesAreContiguousBlocks(t *testing.T) {
	l := mustLayout(t, 8, 8, 8, 4)
	k3 := 4 * 4 * 4
	for c := 0; c < l.NumCubes(); c++ {
		cx, cy, cz := l.CubeCoord(c)
		// Every node whose coordinates lie in the cube must index into
		// [c*k3, (c+1)*k3).
		for lx := 0; lx < 4; lx++ {
			for ly := 0; ly < 4; ly++ {
				for lz := 0; lz < 4; lz++ {
					i := l.Idx(cx*4+lx, cy*4+ly, cz*4+lz)
					if i < c*k3 || i >= (c+1)*k3 {
						t.Fatalf("node of cube %d stored at %d outside its block", c, i)
					}
				}
			}
		}
	}
}

func TestCubeIndexCoordRoundTrip(t *testing.T) {
	l := mustLayout(t, 12, 8, 16, 4)
	for c := 0; c < l.NumCubes(); c++ {
		cx, cy, cz := l.CubeCoord(c)
		if l.CubeIndex(cx, cy, cz) != c {
			t.Fatalf("CubeIndex(CubeCoord(%d)) = %d", c, l.CubeIndex(cx, cy, cz))
		}
	}
}

func TestCubeOf(t *testing.T) {
	l := mustLayout(t, 8, 8, 8, 4)
	cx, cy, cz := l.CubeOf(5, 0, 7)
	if cx != 1 || cy != 0 || cz != 1 {
		t.Fatalf("CubeOf(5,0,7) = (%d,%d,%d), want (1,0,1)", cx, cy, cz)
	}
}

func TestWrapMatchesGridWrap(t *testing.T) {
	l := mustLayout(t, 8, 4, 12, 4)
	g := grid.New(8, 4, 12)
	f := func(x, y, z int16) bool {
		lx, ly, lz := l.Wrap(int(x), int(y), int(z))
		gx, gy, gz := g.Wrap(int(x), int(y), int(z))
		return lx == gx && ly == gy && lz == gz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResetToEquilibrium(t *testing.T) {
	l := mustLayout(t, 4, 4, 4, 2)
	u := [3]float64{0.02, 0, -0.01}
	l.Reset(1.1, u)
	n := l.At(3, 2, 1)
	var geq [lattice.Q]float64
	lattice.Equilibrium(1.1, u, &geq)
	if l.dist[0][l.Idx(3, 2, 1)] != geq || l.dist[1][l.Idx(3, 2, 1)] != geq || n.Rho != 1.1 || n.Vel != u {
		t.Fatal("Reset did not set equilibrium state")
	}
}

func TestGridRoundTrip(t *testing.T) {
	// FromGrid then ToGrid must be the identity on all node fields.
	g := grid.New(8, 8, 8)
	for i := range g.Macros() {
		g.Macros()[i].Rho = float64(i)
		g.Macros()[i].Vel = [3]float64{float64(i), float64(2 * i), float64(3 * i)}
		for q := 0; q < lattice.Q; q++ {
			g.Dist(0)[i][q] = float64(i*lattice.Q + q)
		}
	}
	l := mustLayout(t, 8, 8, 8, 4)
	if err := l.FromGrid(g); err != nil {
		t.Fatal(err)
	}
	back := l.ToGrid()
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 8; z++ {
				a, b := g.At(x, y, z), back.At(x, y, z)
				i := g.Idx(x, y, z)
				if a.Rho != b.Rho || a.Vel != b.Vel || g.Dist(0)[i] != back.Dist(0)[i] {
					t.Fatalf("round trip differs at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestFromGridShapeMismatch(t *testing.T) {
	l := mustLayout(t, 8, 8, 8, 4)
	if err := l.FromGrid(grid.New(4, 8, 8)); err == nil {
		t.Fatal("FromGrid accepted mismatched shape")
	}
}

// pointStencil is the degenerate stencil whose only non-zero weight, 1,
// sits on its base node (x, y, z).
func pointStencil(x, y, z int) ibm.Stencil {
	e0 := [ibm.SupportWidth]float64{1}
	return ibm.Stencil{Base: [3]int{x, y, z}, Wx: e0, Wy: e0, Wz: e0}
}

func TestSpreadStencilWrapsAndAccumulates(t *testing.T) {
	l := mustLayout(t, 4, 4, 4, 2)
	l.SpreadStencil(pointStencil(-1, 4, 2), [3]float64{1, 2, 3}, 1)
	l.SpreadStencil(pointStencil(3, 0, 2), [3]float64{1, 0, 0}, 1)
	f := l.At(3, 0, 2).Force
	if f != ([3]float64{2, 2, 3}) {
		t.Fatalf("force = %v, want {2 2 3}", f)
	}
}

func TestInterpolateStencilWraps(t *testing.T) {
	l := mustLayout(t, 4, 4, 4, 2)
	l.At(0, 1, 3).Vel = [3]float64{0.5, 0, 0}
	if got := l.InterpolateStencil(pointStencil(4, 1, -1)); got != ([3]float64{0.5, 0, 0}) {
		t.Fatalf("InterpolateStencil wrapped = %v", got)
	}
}

func TestTotalMassAtRest(t *testing.T) {
	l := mustLayout(t, 4, 4, 8, 4)
	want := float64(l.NumNodes())
	if got := l.TotalMass(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalMass = %g, want %g", got, want)
	}
}
