package grid

import (
	"math"
	"testing"

	"lbmib/internal/lattice"
)

func TestNewDigestGridCeilDivision(t *testing.T) {
	d, err := NewDigestGrid(10, 8, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.TX != 3 || d.TY != 2 || d.TZ != 1 {
		t.Fatalf("tile grid = %d×%d×%d, want 3×2×1", d.TX, d.TY, d.TZ)
	}
	if d.NumTiles() != 6 || len(d.Tiles) != 6 {
		t.Fatalf("NumTiles = %d (len %d), want 6", d.NumTiles(), len(d.Tiles))
	}
	if _, err := NewDigestGrid(4, 4, 4, 0); err == nil {
		t.Fatal("tile size 0 accepted")
	}
	if _, err := NewDigestGrid(0, 4, 4, 2); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

func TestTileIndexCoordRoundTrip(t *testing.T) {
	d, err := NewDigestGrid(8, 12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumTiles(); i++ {
		tx, ty, tz := d.TileCoord(i)
		if d.TileIndex(tx, ty, tz) != i {
			t.Fatalf("TileCoord/TileIndex disagree at %d", i)
		}
	}
	if d.TileOf(3, 5, 1) != d.TileIndex(1, 2, 0) {
		t.Fatal("TileOf picked the wrong tile")
	}
}

func TestDigestRestState(t *testing.T) {
	g := New(8, 8, 8)
	d, err := NewDigestGrid(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mass-float64(g.NumNodes())) > 1e-9 {
		t.Fatalf("digest mass = %g, want %d", d.Mass, g.NumNodes())
	}
	if d.MaxVel != 0 || d.NonFinite != 0 {
		t.Fatalf("rest digest MaxVel=%g NonFinite=%d, want zeros", d.MaxVel, d.NonFinite)
	}
	if d.BadCell != ([3]int{-1, -1, -1}) {
		t.Fatalf("BadCell = %v, want {-1,-1,-1}", d.BadCell)
	}
	for i := range d.Tiles {
		if math.Abs(d.Tiles[i].Mass-64) > 1e-12 {
			t.Fatalf("tile %d mass = %g, want 64", i, d.Tiles[i].Mass)
		}
	}
}

func TestDigestLocalizesAnomalies(t *testing.T) {
	g := New(8, 8, 8)
	g.At(5, 6, 7).Vel = [3]float64{0.3, 0, 0.4}
	g.At(2, 1, 3).Rho = math.NaN()
	d, err := NewDigestGrid(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.MaxVel-0.5) > 1e-12 {
		t.Fatalf("MaxVel = %g, want 0.5", d.MaxVel)
	}
	if d.MaxVelCell != ([3]int{5, 6, 7}) {
		t.Fatalf("MaxVelCell = %v, want {5,6,7}", d.MaxVelCell)
	}
	if d.NonFinite != 1 || d.BadCell != ([3]int{2, 1, 3}) {
		t.Fatalf("NonFinite=%d BadCell=%v, want 1 at {2,1,3}", d.NonFinite, d.BadCell)
	}
	if !math.IsNaN(d.BadRho) || d.BadVel != ([3]float64{}) {
		t.Fatalf("bad node kept rho=%g u=%v, want NaN and zero", d.BadRho, d.BadVel)
	}
	fast := d.TileOf(5, 6, 7)
	if math.Abs(math.Sqrt(d.Tiles[fast].MaxVel2)-0.5) > 1e-12 {
		t.Fatalf("fast tile MaxVel2 = %g, want 0.25", d.Tiles[fast].MaxVel2)
	}
	bad := d.TileOf(2, 1, 3)
	if d.Tiles[bad].NonFinite != 1 {
		t.Fatalf("bad tile NonFinite = %d, want 1", d.Tiles[bad].NonFinite)
	}
	for i := range d.Tiles {
		if i != bad && d.Tiles[i].NonFinite != 0 {
			t.Fatalf("tile %d has stray NonFinite", i)
		}
	}
}

func TestDigestRaggedEdgeTilesCoverAllNodes(t *testing.T) {
	g := New(5, 7, 3) // none divisible by 4
	d, err := NewDigestGrid(5, 7, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := range d.Tiles {
		sum += d.Tiles[i].Mass
	}
	if math.Abs(sum-float64(g.NumNodes())) > 1e-9 {
		t.Fatalf("tile masses sum to %g, want %d", sum, g.NumNodes())
	}
	if math.Abs(d.Mass-sum) > 1e-12 {
		t.Fatalf("aggregate mass %g != tile sum %g", d.Mass, sum)
	}
}

func TestDigestDimensionMismatch(t *testing.T) {
	g := New(4, 4, 4)
	d, err := NewDigestGrid(8, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestDigestReadsPresentBufferAfterSwap(t *testing.T) {
	g := New(4, 4, 4)
	// Make the two parity buffers differ: double every entry of buffer 1.
	for i := range g.dist[1] {
		for q := range g.dist[1][i] {
			g.dist[1][i][q] *= 2
		}
	}
	d, err := NewDigestGrid(4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	before := d.Mass
	g.Swap()
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mass-2*before) > 1e-9 {
		t.Fatalf("post-swap mass = %g, want %g", d.Mass, 2*before)
	}
}

func TestDigestReuseResetsState(t *testing.T) {
	g := New(4, 4, 4)
	g.At(0, 0, 0).Rho = math.Inf(1)
	d, err := NewDigestGrid(4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	if d.NonFinite != 1 {
		t.Fatalf("NonFinite = %d, want 1", d.NonFinite)
	}
	g.At(0, 0, 0).Rho = 1
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	if d.NonFinite != 0 || d.BadCell != ([3]int{-1, -1, -1}) || d.BadRho != 0 {
		t.Fatalf("reused digest kept stale anomaly: NonFinite=%d BadCell=%v BadRho=%g", d.NonFinite, d.BadCell, d.BadRho)
	}
}

func TestDigestCubeMajorRejectsBadShape(t *testing.T) {
	d, err := NewDigestGrid(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	dist := func(n int) [][lattice.Q]float64 { return make([][lattice.Q]float64, n) }
	if err := d.DigestCubeMajor(dist(100), make([]Macro, 100), 4); err == nil {
		t.Fatal("wrong node count accepted")
	}
	if err := d.DigestCubeMajor(dist(512), make([]Macro, 100), 4); err == nil {
		t.Fatal("record count other than the distribution count accepted")
	}
	if err := d.DigestCubeMajor(dist(512), make([]Macro, 512), 3); err == nil {
		t.Fatal("non-dividing cube size accepted")
	}
	if err := d.DigestCubeMajor(dist(512), make([]Macro, 512), 2); err == nil {
		t.Fatal("cube size other than the tile size accepted")
	}
}
