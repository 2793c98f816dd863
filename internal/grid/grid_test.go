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
	var df [lattice.Q]float64
	g.Load(g.Idx(2, 1, 3), &df)
	for i := 0; i < lattice.Q; i++ {
		if math.Abs(df[i]-lattice.W[i]) > 1e-15 {
			t.Fatalf("g[%d] = %g, want weight %g", i, df[i], lattice.W[i])
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

// extents are the block extents the grid tests run over, on an 8×8×16
// domain: the slab's x-planes, 2³, 4³ and 8³ cubes, and the pencils
// 4×4×NZ and 2×NY×NZ.
var extents = [][3]int{{1, 8, 16}, {2, 2, 2}, {4, 4, 4}, {8, 8, 8}, {4, 4, 16}, {2, 8, 16}}

func blocked(t *testing.T, e [3]int) *Grid {
	t.Helper()
	g, err := NewBlocked(8, 8, 16, e)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIdxBijective(t *testing.T) {
	grids := []*Grid{New(3, 4, 5)}
	for _, e := range extents {
		grids = append(grids, blocked(t, e))
	}
	for _, g := range grids {
		seen := make([]bool, g.NumNodes())
		for x := 0; x < g.NX; x++ {
			for y := 0; y < g.NY; y++ {
				for z := 0; z < g.NZ; z++ {
					i := g.Idx(x, y, z)
					if i < 0 || i >= len(seen) || seen[i] {
						t.Fatalf("%v blocks: Idx(%d,%d,%d) = %d not a fresh in-range index", g.BlockExtent(), x, y, z, i)
					}
					seen[i] = true
				}
			}
		}
	}
}

// TestBlocksAreContiguous: for every extent, block b is the box
// BlockBox(b), its nodes occupy entries [b·n, (b+1)·n) z-fastest, and
// the blocks run in x-major order of their origins.
func TestBlocksAreContiguous(t *testing.T) {
	for _, e := range extents {
		g := blocked(t, e)
		n, nb := e[0]*e[1]*e[2], g.Blocks()
		if g.NumBlocks() != nb[0]*nb[1]*nb[2] || g.NumBlocks()*n != g.NumNodes() {
			t.Fatalf("%v: %d blocks (%v) of %d nodes for %d nodes", e, g.NumBlocks(), nb, n, g.NumNodes())
		}
		for b := 0; b < g.NumBlocks(); b++ {
			o, ext := g.BlockBox(b)
			if ext != e {
				t.Fatalf("%v: block %d has extent %v", e, b, ext)
			}
			if want := ((o[0]/e[0]*nb[1]+o[1]/e[1])*nb[2] + o[2]/e[2]); want != b {
				t.Fatalf("%v: block %d's origin %v is block %d's in x-major order", e, b, o, want)
			}
			i := b * n
			for x := o[0]; x < o[0]+e[0]; x++ {
				for y := o[1]; y < o[1]+e[1]; y++ {
					for z := o[2]; z < o[2]+e[2]; z++ {
						if got := g.Idx(x, y, z); got != i {
							t.Fatalf("%v: block %d node (%d,%d,%d) at %d, want %d", e, b, x, y, z, got, i)
						}
						i++
					}
				}
			}
		}
	}
}

// TestIdxMatchesStoredOrders pins the two orders the engines, the
// checkpoint and the digest tiles were written against: New's x-major
// (x*NY + y)*NZ + z, and on k³ cubes the cube-major order, cube
// (cx, cy, cz) at ((cx*CY + cy)*CZ + cz)·k³, z-fastest inside it.
func TestIdxMatchesStoredOrders(t *testing.T) {
	s, c := New(8, 8, 16), blocked(t, [3]int{4, 4, 4})
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 16; z++ {
				if got, want := s.Idx(x, y, z), (x*8+y)*16+z; got != want {
					t.Fatalf("slab Idx(%d,%d,%d) = %d, want %d", x, y, z, got, want)
				}
				cube := (x/4*2+y/4)*4 + z/4
				if got, want := c.Idx(x, y, z), cube*64+(x%4*4+y%4)*4+z%4; got != want {
					t.Fatalf("cube Idx(%d,%d,%d) = %d, want %d", x, y, z, got, want)
				}
			}
		}
	}
	if b := blocked(t, [3]int{1, 8, 16}); b.Idx(5, 3, 9) != s.Idx(5, 3, 9) {
		t.Fatal("NewBlocked with the slab's extent orders the nodes unlike New")
	}
}

// values returns the 19 values of the node at entry i of g.
func values(g *Grid, i int) (v [lattice.Q]float64) {
	g.Load(i, &v)
	return v
}

// TestCopyFromRoundTrip: a state copied from the slab grid into a grid
// of every extent and back is the same state node for node, Record reads
// the copy in x-major order, and a copy between grids of other
// dimensions is an error.
func TestCopyFromRoundTrip(t *testing.T) {
	g := New(8, 8, 16)
	for i := range g.macro {
		g.macro[i] = Macro{Vel: [3]float64{float64(i), float64(2 * i), float64(3 * i)}, Rho: float64(i), Force: [3]float64{0, float64(-i), 0}}
		for q := 0; q < lattice.Q; q++ {
			g.dist[g.Slot(i, q)] = float64(i*lattice.Q + q)
		}
	}
	for _, e := range extents {
		l, back := blocked(t, e), New(8, 8, 16)
		if err := l.CopyFrom(g); err != nil {
			t.Fatal(err)
		}
		if *l.At(5, 3, 9) != *g.At(5, 3, 9) || values(l, l.Idx(5, 3, 9)) != values(g, g.Idx(5, 3, 9)) {
			t.Fatalf("%v: node (5,3,9) not copied to its place", e)
		}
		for i := range g.macro {
			if df, m := l.Record(i); df != values(g, i) || m != g.macro[i] {
				t.Fatalf("%v: Record(%d) is not node %d in x-major order", e, i, i)
			}
		}
		if err := back.CopyFrom(l); err != nil {
			t.Fatal(err)
		}
		for i := range g.macro {
			if back.macro[i] != g.macro[i] || values(back, i) != values(g, i) {
				t.Fatalf("%v: round trip differs at node %d", e, i)
			}
		}
	}
	if err := blocked(t, [3]int{4, 4, 4}).CopyFrom(New(4, 8, 16)); err == nil {
		t.Fatal("CopyFrom accepted a grid of other dimensions")
	}
}

func TestNewBlockedRejectsBadShapes(t *testing.T) {
	for _, c := range []struct{ dims, block [3]int }{
		{[3]int{0, 4, 4}, [3]int{2, 2, 2}},
		{[3]int{4, 4, 4}, [3]int{0, 0, 0}},
		{[3]int{4, 4, 4}, [3]int{-2, -2, -2}},
		{[3]int{4, 4, 4}, [3]int{4, 4, 0}},
		{[3]int{6, 4, 4}, [3]int{4, 4, 4}}, // 6 % 4 != 0
		{[3]int{4, 6, 4}, [3]int{4, 4, 4}},
		{[3]int{4, 4, 6}, [3]int{4, 4, 4}},
		{[3]int{8, 8, 16}, [3]int{4, 4, 12}}, // a pencil that does not divide NZ
	} {
		if _, err := NewBlocked(c.dims[0], c.dims[1], c.dims[2], c.block); err == nil {
			t.Errorf("NewBlocked(%v, %v) accepted an invalid shape", c.dims, c.block)
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
