package cube

import (
	"math"
	"math/rand"
	"testing"

	"lbmib/internal/grid"
)

// perturb gives every node a distinct deterministic pseudo-random state
// so layout-order bugs can't cancel out.
func perturb(l *Layout) {
	rng := rand.New(rand.NewSource(42))
	for x := 0; x < l.NX; x++ {
		for y := 0; y < l.NY; y++ {
			for z := 0; z < l.NZ; z++ {
				i, n := l.Idx(x, y, z), l.At(x, y, z)
				for q := range l.dist[0][i] {
					l.dist[0][i][q] = rng.Float64()
					l.dist[1][i][q] = rng.Float64()
				}
				n.Vel = [3]float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}
				n.Rho = 1 + rng.Float64()*0.1
			}
		}
	}
}

func TestLayoutDigestMatchesSlabDigest(t *testing.T) {
	for _, swap := range []bool{false, true} {
		l, err := NewLayout(8, 12, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		perturb(l)
		if swap {
			l.Swap()
		}
		dl, err := grid.NewDigestGrid(8, 12, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Digest(dl); err != nil {
			t.Fatal(err)
		}
		// ToGrid normalizes, so the slab digest reads the same physical
		// present buffer the layout digest did.
		dg, err := grid.NewDigestGrid(8, 12, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.ToGrid().Digest(dg); err != nil {
			t.Fatal(err)
		}
		if math.Abs(dl.Mass-dg.Mass) > 1e-9 || math.Abs(dl.MaxVel-dg.MaxVel) > 1e-12 {
			t.Fatalf("swap=%v aggregates diverge: mass %g vs %g, maxvel %g vs %g",
				swap, dl.Mass, dg.Mass, dl.MaxVel, dg.MaxVel)
		}
		if dl.MaxVelCell != dg.MaxVelCell {
			t.Fatalf("swap=%v MaxVelCell %v vs %v", swap, dl.MaxVelCell, dg.MaxVelCell)
		}
		for i := range dl.Tiles {
			if math.Abs(dl.Tiles[i].Mass-dg.Tiles[i].Mass) > 1e-9 ||
				math.Abs(dl.Tiles[i].MaxVel2-dg.Tiles[i].MaxVel2) > 1e-12 ||
				dl.Tiles[i].NonFinite != dg.Tiles[i].NonFinite {
				t.Fatalf("swap=%v tile %d diverges: %+v vs %+v", swap, i, dl.Tiles[i], dg.Tiles[i])
			}
		}
	}
}

// TestLayoutDigestRejectsForeignTileSize: a layout digests only into
// tiles that are its cubes, so a tile the engine does not own is never
// named.
func TestLayoutDigestRejectsForeignTileSize(t *testing.T) {
	l, err := NewLayout(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := grid.NewDigestGrid(8, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Digest(d); err == nil {
		t.Fatal("tile size 2 accepted over 4³ cubes")
	}
}

func TestLayoutDigestLocalizesToCube(t *testing.T) {
	l, err := NewLayout(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	l.At(6, 2, 5).Rho = math.NaN()
	d, err := grid.NewDigestGrid(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Digest(d); err != nil {
		t.Fatal(err)
	}
	cx, cy, cz := l.CubeOf(6, 2, 5)
	want := l.CubeIndex(cx, cy, cz)
	if d.Tiles[want].NonFinite != 1 {
		t.Fatalf("cube %d NonFinite = %d, want 1", want, d.Tiles[want].NonFinite)
	}
	if d.TileOf(6, 2, 5) != want {
		t.Fatalf("tile index %d, cube index %d — tiles must coincide with cubes at K=k",
			d.TileOf(6, 2, 5), want)
	}
	if d.BadCell != ([3]int{6, 2, 5}) {
		t.Fatalf("BadCell = %v, want {6,2,5}", d.BadCell)
	}
}

func TestLayoutDigestDimensionMismatch(t *testing.T) {
	l, err := NewLayout(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := grid.NewDigestGrid(4, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Digest(d); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}
