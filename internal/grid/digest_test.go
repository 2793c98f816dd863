package grid

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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

// TestDigestReadsPresentBufferAfterSwap: a digest reads a fresh block's
// records and a stale block's array, as it is. With every distribution
// doubled — and stored at the opposite slot, as the swapped phase of an
// in-place step would leave it, so a digest that read a stale copy would
// show it — the digest of fresh records is unchanged, and the digest of
// stale ones refreshes them from the array as it is: each node's ρ
// doubles, and so, exactly, does every tile's mass.
func TestDigestReadsPresentBufferAfterSwap(t *testing.T) {
	g := New(4, 4, 4)
	d, err := NewDigestGrid(4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	before := append([]TileDigest(nil), d.Tiles...)
	for i := range g.macro {
		var v, sw [lattice.Q]float64
		g.Load(i, &v)
		for q := range v {
			sw[lattice.Opposite[q]] = 2 * v[q]
		}
		sw[0] = 2 * v[0]
		g.Store(i, &sw)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	for i := range d.Tiles {
		if d.Tiles[i] != before[i] {
			t.Fatalf("tile %d of fresh records: %+v after the swap, want %+v", i, d.Tiles[i], before[i])
		}
	}
	digestSplit(t, g, d, 1, make([]bool, g.NumBlocks()))
	for i := range d.Tiles {
		if math.Float64bits(d.Tiles[i].Mass) == math.Float64bits(before[i].Mass) {
			t.Fatalf("tile %d of stale records: mass %g, the records' before the refresh", i, d.Tiles[i].Mass)
		}
	}
	ref, err := NewDigestGrid(4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	referenceDigest(ref, gridNodes(g))
	if diff := sameDigest(d, ref); diff != "" {
		t.Fatalf("stale records refreshed from the array: %s", diff)
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

func TestDigestBeginRejectsBadShape(t *testing.T) {
	d, err := NewDigestGrid(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		src  *Grid
	}{
		{"cube size other than the tile size", mustBlocked(8, 8, 8, [3]int{2, 2, 2})},
		{"dimensions other than the digest's", mustBlocked(4, 8, 16, [3]int{4, 4, 4})},
		{"slab grid of other dimensions", New(8, 4, 16)},
		// A pencil's blocks are neither x-planes nor tiles: a tile would
		// span several blocks, and a piece's range of blocks would not
		// be a range of whole tiles.
		{"4x4x8 pencils", mustBlocked(8, 8, 8, [3]int{4, 4, 8})},
		{"2x8x8 slabs of two planes", mustBlocked(8, 8, 8, [3]int{2, 8, 8})},
	}
	for _, c := range bad {
		if _, err := d.Begin(c.src, 1, nil); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := d.Begin(New(8, 8, 8), 0, nil); err == nil {
		t.Error("zero pieces accepted")
	}
}

// mustBlocked is NewBlocked for shapes known valid.
func mustBlocked(nx, ny, nz int, block [3]int) *Grid {
	g, err := NewBlocked(nx, ny, nz, block)
	if err != nil {
		panic(err)
	}
	return g
}

// referenceDigest is the digest's definition (TileDigest) written out
// as a walk over the lattice, independent of the slots and of Reduce, as
// their oracle: every node's ρ summed x-layer by x-layer into its tile,
// the layers in x order, the tiles in tile order; the fastest node the
// first strictly faster one in lattice order; the first bad node the
// first with a NaN or infinite ρ or u.
func referenceDigest(d *DigestGrid, node func(x, y, z int) (rho float64, u [3]float64)) {
	tiles := make([]TileDigest, d.NumTiles())
	maxV2, maxCell := 0.0, [3]int{}
	bad, badRho, badVel, nonFinite := [3]int{-1, -1, -1}, 0.0, [3]float64{}, 0
	for x := 0; x < d.NX; x++ {
		layer := make([]float64, d.TY*d.TZ)
		for y := 0; y < d.NY; y++ {
			for z := 0; z < d.NZ; z++ {
				rho, u := node(x, y, z)
				layer[(y/d.K)*d.TZ+z/d.K] += rho
				td := &tiles[d.TileOf(x, y, z)]
				v2 := u[0]*u[0] + u[1]*u[1] + u[2]*u[2]
				if v2 > td.MaxVel2 { // a NaN speed is never the fastest
					td.MaxVel2 = v2
				}
				if v2 > maxV2 {
					maxV2, maxCell = v2, [3]int{x, y, z}
				}
				if math.IsNaN(rho) || math.IsInf(rho, 0) ||
					math.IsNaN(u[0]) || math.IsInf(u[0], 0) ||
					math.IsNaN(u[1]) || math.IsInf(u[1], 0) ||
					math.IsNaN(u[2]) || math.IsInf(u[2], 0) {
					td.NonFinite++
					nonFinite++
					if bad[0] < 0 {
						bad, badRho, badVel = [3]int{x, y, z}, rho, u
					}
				}
			}
		}
		for c, m := range layer {
			tiles[(x/d.K)*d.TY*d.TZ+c].Mass += m
		}
	}
	d.Mass = 0
	for _, td := range tiles {
		d.Mass += td.Mass
	}
	copy(d.Tiles, tiles)
	d.MaxVel, d.MaxVelCell, d.NonFinite = math.Sqrt(maxV2), maxCell, nonFinite
	d.BadCell, d.BadRho, d.BadVel = bad, badRho, badVel
}

// gridNodes reads node (x, y, z)'s record from a grid of any layout.
func gridNodes(g *Grid) func(x, y, z int) (float64, [3]float64) {
	return func(x, y, z int) (float64, [3]float64) {
		m := &g.macro[g.Idx(x, y, z)]
		return m.Rho, m.Vel
	}
}

// snapshotOf copies a grid's nodes into a snapshot.
func snapshotOf(g *Grid) *Snapshot {
	s := NewSnapshot(g.Dims())
	eachNode(g.NX, g.NY, g.NZ, func(x, y, z int) {
		i, n := g.Idx(x, y, z), s.At(x, y, z)
		g.Load(i, &n.DF)
		n.Rho, n.Vel, n.Force = g.macro[i].Rho, g.macro[i].Vel, g.macro[i].Force
	})
	return s
}

// digestSplit digests src in the given number of pieces, each on its own
// goroutine, as an engine's worker team does, refreshing the blocks fresh
// marks stale (Begin).
func digestSplit(t *testing.T, src *Grid, d *DigestGrid, parts int, fresh []bool) {
	t.Helper()
	part, err := d.Begin(src, parts, fresh)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part(p)
		}()
	}
	wg.Wait()
	d.End()
}

// sameDigest reports the first field in which got and want differ, with
// every float compared by its bits (NaN payloads and −0 included), or "".
func sameDigest(got, want *DigestGrid) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.Tiles) != len(want.Tiles) {
		return fmt.Sprintf("%d tiles, want %d", len(got.Tiles), len(want.Tiles))
	}
	for i, w := range want.Tiles {
		g := got.Tiles[i]
		if !same(g.Mass, w.Mass) || !same(g.MaxVel2, w.MaxVel2) || g.NonFinite != w.NonFinite {
			return fmt.Sprintf("tile %d = %+v, want %+v", i, g, w)
		}
	}
	switch {
	case !same(got.Mass, want.Mass):
		return fmt.Sprintf("Mass = %v, want %v", got.Mass, want.Mass)
	case !same(got.MaxVel, want.MaxVel):
		return fmt.Sprintf("MaxVel = %v, want %v", got.MaxVel, want.MaxVel)
	case got.MaxVelCell != want.MaxVelCell:
		return fmt.Sprintf("MaxVelCell = %v, want %v", got.MaxVelCell, want.MaxVelCell)
	case got.NonFinite != want.NonFinite:
		return fmt.Sprintf("NonFinite = %d, want %d", got.NonFinite, want.NonFinite)
	case got.BadCell != want.BadCell:
		return fmt.Sprintf("BadCell = %v, want %v", got.BadCell, want.BadCell)
	case !same(got.BadRho, want.BadRho):
		return fmt.Sprintf("BadRho = %v, want %v", got.BadRho, want.BadRho)
	}
	for a := range want.BadVel {
		if !same(got.BadVel[a], want.BadVel[a]) {
			return fmt.Sprintf("BadVel = %v, want %v", got.BadVel, want.BadVel)
		}
	}
	return ""
}

// pops names one node's 19 values in a direction-major array: value q
// at df[q·n + e].
type pops struct {
	df   []float64
	n, e int
}

// at returns the slot of value q.
func (p pops) at(q int) *float64 { return &p.df[q*p.n+p.e] }

// nodeAt returns the distributions and record of node (x, y, z) of a
// layout under test.
type nodeAt = func(x, y, z int) (pops, *Macro)

// digestField is a state the oracle test digests, written into an
// nx×ny×nz layout of tile size k through node.
type digestField struct {
	name string
	fill func(rng *rand.Rand, nx, ny, nz, k int, node nodeAt)
}

var digestFields = []digestField{
	{"random", fillRandom},
	{"zero", func(rng *rand.Rand, nx, ny, nz, k int, node nodeAt) {
		eachNode(nx, ny, nz, func(x, y, z int) {
			df, m := node(x, y, z)
			for q := 0; q < lattice.Q; q++ {
				*df.at(q) = 0
			}
			*m = Macro{}
		})
	}},
	{"negative zero", func(rng *rand.Rand, nx, ny, nz, k int, node nodeAt) {
		nz0 := math.Copysign(0, -1)
		eachNode(nx, ny, nz, func(x, y, z int) {
			df, m := node(x, y, z)
			for q := 0; q < lattice.Q; q++ {
				*df.at(q) = nz0
			}
			m.Rho, m.Vel = nz0, [3]float64{nz0, nz0, nz0}
		})
	}},
	{"tied maximum speeds", func(rng *rand.Rand, nx, ny, nz, k int, node nodeAt) {
		fillRandom(rng, nx, ny, nz, k, node)
		// The same fastest speed in the first and last node, in tiles
		// of every piece in between, and twice in one tile.
		for _, c := range [][3]int{
			{nx - 1, ny - 1, nz - 1}, {nx / 2, ny - 1, 0}, {nx / 2, 0, nz - 1},
			{nx - 2, 1, 1}, {nx - 2, 0, 0}, {0, 0, 0}, {1, ny / 2, nz / 2},
		} {
			_, m := node(c[0], c[1], c[2])
			m.Vel = [3]float64{0.3, 0, -0.4}
		}
	}},
	// Non-finite values in ρ, one velocity component or one
	// distribution, in one tile or in two.
	faultField("NaN rho in one tile", func(df pops, m *Macro) { m.Rho = math.NaN() }, oneTile),
	faultField("+Inf u in one tile", func(df pops, m *Macro) { m.Vel[1] = math.Inf(1) }, oneTile),
	faultField("-Inf distribution in one tile", func(df pops, m *Macro) { *df.at(7) = math.Inf(-1) }, oneTile),
	faultField("NaN u in two tiles", func(df pops, m *Macro) { m.Vel[2] = math.NaN() }, twoTiles),
	faultField("NaN distribution in two tiles", func(df pops, m *Macro) { *df.at(18) = math.NaN() }, twoTiles),
	faultField("+Inf rho in two tiles", func(df pops, m *Macro) { m.Rho = math.Inf(1) }, twoTiles),
}

func fillRandom(rng *rand.Rand, nx, ny, nz, k int, node nodeAt) {
	eachNode(nx, ny, nz, func(x, y, z int) {
		df, m := node(x, y, z)
		randomNode(rng, df, m)
	})
}

// faultField is a random field with seed applied to the nodes cells
// picks.
func faultField(name string, seed func(df pops, m *Macro), cells func(nx, ny, nz, k int) [][3]int) digestField {
	return digestField{name, func(rng *rand.Rand, nx, ny, nz, k int, node nodeAt) {
		fillRandom(rng, nx, ny, nz, k, node)
		for _, c := range cells(nx, ny, nz, k) {
			seed(node(c[0], c[1], c[2]))
		}
	}}
}

// oneTile is three nodes of one tile in the middle of the grid.
func oneTile(nx, ny, nz, k int) [][3]int {
	x, y, z := nx/2/k*k, ny/2/k*k, nz/2/k*k
	return [][3]int{{x + 1, y, z + 1}, {x, y, z}, {x + 1, y + 1, z}}
}

// twoTiles is three nodes of two tiles, at the grid's far corners.
func twoTiles(nx, ny, nz, k int) [][3]int {
	return [][3]int{{nx - 1, ny - 1, nz - 1}, {0, 0, 1}, {nx - 1, ny - 2, nz - 1}}
}

func eachNode(nx, ny, nz int, fn func(x, y, z int)) {
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				fn(x, y, z)
			}
		}
	}
}

func randomNode(rng *rand.Rand, df pops, m *Macro) {
	for q := 0; q < lattice.Q; q++ {
		*df.at(q) = rng.Float64() - 0.25
	}
	m.Rho = 1 + rng.NormFloat64()*0.01
	m.Vel = [3]float64{rng.NormFloat64() * 0.05, rng.NormFloat64() * 0.05, rng.NormFloat64() * 0.05}
}

// TestDigestMatchesPerNodeReference: the digest body, whole or split
// into any number of pieces on the slab grid and on grids of cubes, and
// the snapshot's walk fill every field bit for bit as the definition
// written out does (referenceDigest) — tiles, aggregates, the fastest
// cell (first in lattice order on ties) and the first bad cell with its
// ρ and u.
func TestDigestMatchesPerNodeReference(t *testing.T) {
	type layout struct {
		name string
		k    int
		src  func() (*Grid, nodeAt)
	}
	at := func(g *Grid) (*Grid, nodeAt) {
		return g, func(x, y, z int) (pops, *Macro) {
			i := g.Idx(x, y, z)
			return pops{g.dist, len(g.macro), i}, &g.macro[i]
		}
	}
	slab := func(nx, ny, nz int) func() (*Grid, nodeAt) {
		return func() (*Grid, nodeAt) { return at(New(nx, ny, nz)) }
	}
	cubes := func(nx, ny, nz, k int) func() (*Grid, nodeAt) {
		return func() (*Grid, nodeAt) { return at(mustBlocked(nx, ny, nz, [3]int{k, k, k})) }
	}
	layouts := []layout{
		{"slab 10x7x9 K=4", 4, slab(10, 7, 9)},
		{"slab 8x6x8 K=2", 2, slab(8, 6, 8)},
		{"cubes 8x6x10 k=2", 2, cubes(8, 6, 10, 2)},
		{"cubes 12x8x4 k=4", 4, cubes(12, 8, 4, 4)},
		{"cubes 16x8x8 k=8", 8, cubes(16, 8, 8, 8)},
	}
	for _, l := range layouts {
		for _, f := range digestFields {
			src, node := l.src()
			nx, ny, nz := src.Dims()
			f.fill(rand.New(rand.NewSource(7)), nx, ny, nz, l.k, node)
			want, err := NewDigestGrid(nx, ny, nz, l.k)
			if err != nil {
				t.Fatal(err)
			}
			referenceDigest(want, gridNodes(src))
			got, err := NewDigestGrid(nx, ny, nz, l.k)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Fill(src); err != nil {
				t.Fatal(err)
			}
			if diff := sameDigest(got, want); diff != "" {
				t.Errorf("%s, %s, Fill: %s", l.name, f.name, diff)
			}
			if err := snapshotOf(src).Digest(got); err != nil {
				t.Fatal(err)
			}
			if diff := sameDigest(got, want); diff != "" {
				t.Errorf("%s, %s, Snapshot.Digest: %s", l.name, f.name, diff)
			}
			for _, parts := range []int{1, 2, 3, 5, 9} {
				digestSplit(t, src, got, parts, nil)
				if diff := sameDigest(got, want); diff != "" {
					t.Errorf("%s, %s, %d pieces: %s", l.name, f.name, parts, diff)
				}
			}
		}
	}
}

// TestDigestRefreshesStaleBlocks: a digest whose record state marks
// blocks stale recomputes their records — lattice.Moments of each node's
// values under its force, as kernel 7 without a reset writes them — and
// digests the refreshed records, whole or split into pieces, on the slab
// grid and on a grid of cubes, with every fault field: the records and the
// digest are the bits of a refresh of those blocks followed by the
// definition's walk (referenceDigest), whose tile masses are the
// refreshed ρ summed layer by layer. Fresh blocks' records are read as
// they are, and every block is fresh afterwards.
func TestDigestRefreshesStaleBlocks(t *testing.T) {
	layouts := []struct {
		name string
		k    int
		src  func() *Grid
	}{
		{"slab 10x7x9 K=4", 4, func() *Grid { return New(10, 7, 9) }},
		{"cubes 12x8x4 k=4", 4, func() *Grid { return mustBlocked(12, 8, 4, [3]int{4, 4, 4}) }},
	}
	for _, l := range layouts {
		for _, f := range digestFields {
			for _, parts := range []int{1, 2, 3, 5} {
				src, want := l.src(), l.src()
				nx, ny, nz := src.Dims()
				_, ext := src.BlockBox(0)
				n := ext[0] * ext[1] * ext[2]
				for _, s := range []*Grid{src, want} {
					dist, macro := s.Dist(), s.Macros()
					f.fill(rand.New(rand.NewSource(7)), nx, ny, nz, l.k, func(x, y, z int) (pops, *Macro) {
						i := s.Idx(x, y, z)
						return pops{dist, len(macro), i}, &macro[i]
					})
				}
				fresh := make([]bool, len(src.Macros())/n)
				for b := range fresh {
					fresh[b] = b%3 == 1
					if fresh[b] {
						continue
					}
					macro := want.Macros()[b*n : (b+1)*n]
					for i := range macro {
						var v [lattice.Q]float64
						want.Load(b*n+i, &v)
						macro[i].Rho = lattice.Moments(&v, macro[i].Force, &macro[i].Vel)
					}
				}
				wantD, err := NewDigestGrid(nx, ny, nz, l.k)
				if err != nil {
					t.Fatal(err)
				}
				referenceDigest(wantD, gridNodes(want))
				got, err := NewDigestGrid(nx, ny, nz, l.k)
				if err != nil {
					t.Fatal(err)
				}
				digestSplit(t, src, got, parts, fresh)
				if diff := sameDigest(got, wantD); diff != "" {
					t.Errorf("%s, %s, %d pieces: %s", l.name, f.name, parts, diff)
				}
				for i, m := range src.Macros() {
					w := want.Macros()[i]
					if math.Float64bits(m.Rho) != math.Float64bits(w.Rho) || !sameBits(m.Vel, w.Vel) {
						t.Fatalf("%s, %s, %d pieces: node %d record %+v, want %+v", l.name, f.name, parts, i, m, w)
					}
				}
				for b, ok := range fresh {
					if !ok {
						t.Fatalf("%s, %s, %d pieces: block %d still stale", l.name, f.name, parts, b)
					}
				}
			}
		}
	}
}

func sameBits(a, b [3]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// BenchmarkDigest times one digest of a 64×64×32 fluid (the sheet_cube
// problem's) as a grid of k = 8 cubes and as the slab grid at K = 4:
// the per-node reference walk, the body on one goroutine, and the body
// split in two pieces on two goroutines; then, on one goroutine, a
// digest of a grid whose every record is stale, refreshed block by
// block as the body digests it ("stale"), against a refresh pass over
// the whole grid followed by the digest ("refresh-then-digest").
func BenchmarkDigest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range []struct {
		name string
		k    int
		src  *Grid
	}{
		{"cubes-k8", 8, mustBlocked(64, 64, 32, [3]int{8, 8, 8})},
		{"slab-K4", 4, New(64, 64, 32)},
	} {
		dist, macro := l.src.Dist(), l.src.Macros()
		for i := range macro {
			randomNode(rng, pops{dist, len(macro), i}, &macro[i])
		}
		d, err := NewDigestGrid(64, 64, 32, l.k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(l.name+"/reference", func(b *testing.B) {
			for range b.N {
				referenceDigest(d, gridNodes(l.src))
			}
		})
		for _, parts := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/pieces=%d", l.name, parts), func(b *testing.B) {
				for range b.N {
					part, _ := d.Begin(l.src, parts, nil)
					var wg sync.WaitGroup
					for p := 1; p < parts; p++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							part(p)
						}()
					}
					part(0)
					wg.Wait()
					d.End()
				}
			})
		}
		_, ext := l.src.BlockBox(0)
		stale := make([]bool, len(macro)/(ext[0]*ext[1]*ext[2]))
		b.Run(l.name+"/stale", func(b *testing.B) {
			for range b.N {
				clear(stale)
				if err := fillStale(d, l.src, stale); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(l.name+"/refresh-then-digest", func(b *testing.B) {
			for range b.N {
				for i := range macro {
					var v [lattice.Q]float64
					l.src.Load(i, &v)
					macro[i].Rho = lattice.Moments(&v, macro[i].Force, &macro[i].Vel)
				}
				if err := d.Fill(l.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fillStale is Fill with the record state fresh.
func fillStale(d *DigestGrid, src *Grid, fresh []bool) error {
	part, err := d.Begin(src, 1, fresh)
	if err != nil {
		return err
	}
	part(0)
	d.End()
	return nil
}
