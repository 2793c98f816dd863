package cube

import (
	"math"
	"math/rand"
	"testing"

	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// perturb gives every node a distinct deterministic pseudo-random state
// so layout-order bugs can't cancel out.
func perturb(l *Layout) {
	rng := rand.New(rand.NewSource(42))
	for x := 0; x < l.NX; x++ {
		for y := 0; y < l.NY; y++ {
			for z := 0; z < l.NZ; z++ {
				i, n := l.Idx(x, y, z), l.At(x, y, z)
				for q := 0; q < lattice.Q; q++ {
					l.Dist()[l.Slot(i, q)] = rng.Float64()
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
			// The swapped phase of an in-place step: node values stored
			// at the opposite slots. Both digests read the array as is.
			for i := range l.Macros() {
				var v, sw [lattice.Q]float64
				l.Load(i, &v)
				for q := range v {
					sw[lattice.Opposite[q]] = v[q]
				}
				l.Store(i, &sw)
			}
		}
		dl, err := grid.NewDigestGrid(8, 12, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Digest(dl); err != nil {
			t.Fatal(err)
		}
		// ToGrid copies the array as it is, so the slab digest reads the
		// same values the layout digest did.
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
	want := cubeIndex(l, 6/4, 2/4, 5/4)
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
