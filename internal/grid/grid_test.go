package grid

import (
	"math"
	"testing"
	"testing/quick"

	"lbmib/internal/lattice"
)

func TestNewInitializesRestState(t *testing.T) {
	g := New(4, 3, 5)
	if g.NumNodes() != 60 {
		t.Fatalf("NumNodes = %d, want 60", g.NumNodes())
	}
	n := g.At(2, 1, 3)
	if n.Rho != 1 {
		t.Fatalf("Rho = %g, want 1", n.Rho)
	}
	for b := 0; b < 2; b++ {
		df := &g.Dist(b)[g.Idx(2, 1, 3)]
		for i := 0; i < lattice.Q; i++ {
			if math.Abs(df[i]-lattice.W[i]) > 1e-15 {
				t.Fatalf("buffer %d [%d] = %g, want weight %g", b, i, df[i], lattice.W[i])
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%v) did not panic", dims)
				}
			}()
			New(dims[0], dims[1], dims[2])
		}()
	}
}

func TestIdxIsXMajorContiguous(t *testing.T) {
	g := New(3, 4, 5)
	// z is the fastest-varying dimension.
	if g.Idx(0, 0, 0) != 0 || g.Idx(0, 0, 1) != 1 {
		t.Fatal("z must be the fastest dimension")
	}
	if g.Idx(0, 1, 0) != 5 {
		t.Fatalf("Idx(0,1,0) = %d, want 5", g.Idx(0, 1, 0))
	}
	if g.Idx(1, 0, 0) != 20 {
		t.Fatalf("Idx(1,0,0) = %d, want 20", g.Idx(1, 0, 0))
	}
}

func TestIdxBijective(t *testing.T) {
	g := New(3, 4, 5)
	seen := make([]bool, g.NumNodes())
	for x := 0; x < 3; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 5; z++ {
				i := g.Idx(x, y, z)
				if i < 0 || i >= len(seen) || seen[i] {
					t.Fatalf("Idx(%d,%d,%d) = %d not a fresh in-range index", x, y, z, i)
				}
				seen[i] = true
			}
		}
	}
}

func TestWrapPeriodicImages(t *testing.T) {
	g := New(4, 4, 4)
	cases := []struct{ in, want [3]int }{
		{[3]int{-1, 0, 0}, [3]int{3, 0, 0}},
		{[3]int{4, 4, 4}, [3]int{0, 0, 0}},
		{[3]int{-5, 9, -4}, [3]int{3, 1, 0}},
		{[3]int{2, 3, 1}, [3]int{2, 3, 1}},
	}
	for _, c := range cases {
		x, y, z := g.Wrap(c.in[0], c.in[1], c.in[2])
		if [3]int{x, y, z} != c.want {
			t.Fatalf("Wrap(%v) = (%d,%d,%d), want %v", c.in, x, y, z, c.want)
		}
	}
}

func TestWrapProperty(t *testing.T) {
	g := New(7, 5, 3)
	f := func(x, y, z int16) bool {
		wx, wy, wz := g.Wrap(int(x), int(y), int(z))
		inRange := wx >= 0 && wx < 7 && wy >= 0 && wy < 5 && wz >= 0 && wz < 3
		// Shifting by one period must not change the wrapped image.
		sx, sy, sz := g.Wrap(int(x)+7, int(y)+5, int(z)+3)
		return inRange && sx == wx && sy == wy && sz == wz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalMassAtRest(t *testing.T) {
	g := New(5, 5, 5)
	want := float64(g.NumNodes()) // ρ = 1 everywhere
	if got := g.TotalMass(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalMass = %g, want %g", got, want)
	}
}

func TestTotalMomentumAtRestIsZero(t *testing.T) {
	g := New(4, 4, 4)
	m := g.TotalMomentum()
	for d := 0; d < 3; d++ {
		if math.Abs(m[d]) > 1e-12 {
			t.Fatalf("momentum[%d] = %g, want 0", d, m[d])
		}
	}
}

func TestResetWithVelocity(t *testing.T) {
	g := New(3, 3, 3)
	u := [3]float64{0.05, 0, -0.02}
	g.Reset(1.1, u)
	m := g.TotalMomentum()
	n := float64(g.NumNodes())
	for d := 0; d < 3; d++ {
		want := n * 1.1 * u[d]
		if math.Abs(m[d]-want) > 1e-9 {
			t.Fatalf("momentum[%d] = %g, want %g", d, m[d], want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(3, 3, 3)
	c := g.Clone()
	g.At(1, 1, 1).Rho = 9
	if c.At(1, 1, 1).Rho == 9 {
		t.Fatal("Clone shares node storage with the original")
	}
	if c.NX != 3 || c.NY != 3 || c.NZ != 3 {
		t.Fatal("Clone lost dimensions")
	}
}

func TestMaxVelocity(t *testing.T) {
	g := New(3, 3, 3)
	if v := g.MaxVelocity(); v != 0 {
		t.Fatalf("MaxVelocity at rest = %g, want 0", v)
	}
	g.At(0, 1, 2).Vel = [3]float64{0.3, 0.4, 0}
	if v := g.MaxVelocity(); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("MaxVelocity = %g, want 0.5", v)
	}
}
