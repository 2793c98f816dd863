package grid

import (
	"fmt"
	"math"

	"lbmib/internal/lattice"
	"lbmib/internal/par"
)

// TileDigest is the per-tile health summary of one k×k×k block of fluid
// nodes: the block's distribution mass, its largest squared speed, and
// how many of its scalar fields are NaN/Inf. Tiles coincide with the
// cube engine's cubes when the tile size equals the cube size, which is
// what lets the flight recorder's fault localization name the cube a
// blow-up started in.
//
// A digest reads the distribution array in place, in the natural phase:
// an in-place engine canonicalizes its array before it digests
// (core.CanonicalizeBlocks), so a tile's mass is the mass of its nodes'
// present distributions whichever phase the last step left. Whichever
// worker digests a tile digests all of it, so its mass is its nodes'
// masses summed in storage order at any team width.
type TileDigest struct {
	Mass      float64 `json:"mass"`
	MaxVel2   float64 `json:"maxVel2"`
	NonFinite int32   `json:"nonFinite,omitempty"`
}

// DigestGrid is one full per-tile digest of a fluid grid, plus the
// whole-grid aggregates the physics watchdog checks. The tile grid is a
// ceil-division of the fluid grid: edge tiles are smaller when K does
// not divide a dimension, so every fluid shape (not just cube-divisible
// ones) can be digested. One body fills it from a grid of x-planes or of
// K³ cubes: Fill on
// the calling goroutine, or Begin and End around a pass split over a
// worker team; every field is the same bits either way, and the same as a
// per-node walk of the grid in storage order.
type DigestGrid struct {
	K          int // tile edge (nodes)
	NX, NY, NZ int // fluid grid dimensions
	TX, TY, TZ int // tile grid dimensions (ceil(N/K))
	Tiles      []TileDigest

	// Whole-grid aggregates, accumulated by the same pass.
	Mass      float64
	MaxVel    float64
	NonFinite int

	// MaxVelCell is the coordinate of the fastest node, and BadCell the
	// first node with a non-finite ρ, u or distribution mass (or
	// {-1,-1,-1} when all nodes are finite); BadRho and BadVel are that
	// node's ρ and u, so a report can name the field that broke — the
	// evidence HealthError reports.
	MaxVelCell [3]int
	BadCell    [3]int
	BadRho     float64
	BadVel     [3]float64

	// The pass in progress, from Begin to End: the grid's arrays, its
	// record state and block extent, one merge slot per piece, and part
	// bound once.
	dist  [][lattice.Q]float64
	macro []Macro
	fresh []bool
	block [3]int
	parts []digestPart
	run   func(p int)
}

// NewDigestGrid allocates a digest for an nx×ny×nz grid at tile size k.
func NewDigestGrid(nx, ny, nz, k int) (*DigestGrid, error) {
	if k < 1 {
		return nil, fmt.Errorf("grid: non-positive digest tile size %d", k)
	}
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("grid: non-positive digest dimensions %d×%d×%d", nx, ny, nz)
	}
	d := &DigestGrid{
		K: k, NX: nx, NY: ny, NZ: nz,
		TX: (nx + k - 1) / k, TY: (ny + k - 1) / k, TZ: (nz + k - 1) / k,
	}
	d.Tiles = make([]TileDigest, d.TX*d.TY*d.TZ)
	return d, nil
}

// NumTiles returns the number of tiles.
func (d *DigestGrid) NumTiles() int { return d.TX * d.TY * d.TZ }

// TileIndex returns the flat index of tile (tx, ty, tz).
func (d *DigestGrid) TileIndex(tx, ty, tz int) int { return (tx*d.TY+ty)*d.TZ + tz }

// TileCoord inverts TileIndex.
func (d *DigestGrid) TileCoord(t int) (tx, ty, tz int) {
	return t / (d.TY * d.TZ), (t / d.TZ) % d.TY, t % d.TZ
}

// TileOf returns the flat tile index containing fluid node (x, y, z).
func (d *DigestGrid) TileOf(x, y, z int) int {
	return d.TileIndex(x/d.K, y/d.K, z/d.K)
}

// reset clears the accumulators for a fresh pass.
func (d *DigestGrid) reset() {
	for i := range d.Tiles {
		d.Tiles[i] = TileDigest{}
	}
	d.Mass = 0
	d.MaxVel = 0
	d.NonFinite = 0
	d.MaxVelCell = [3]int{}
	d.BadCell = [3]int{-1, -1, -1}
	d.BadRho, d.BadVel = 0, [3]float64{}
}

// finish derives the whole-grid aggregates from the filled tiles.
func (d *DigestGrid) finish() {
	mass := 0.0
	maxV2 := 0.0
	nonFinite := 0
	for i := range d.Tiles {
		mass += d.Tiles[i].Mass
		if d.Tiles[i].MaxVel2 > maxV2 {
			maxV2 = d.Tiles[i].MaxVel2
		}
		nonFinite += int(d.Tiles[i].NonFinite)
	}
	d.Mass = mass
	d.MaxVel = math.Sqrt(maxV2)
	d.NonFinite = nonFinite
}

// digestPart is what one piece of a split pass found beyond its tiles:
// the first node of its range with the range's largest squared speed
// (maxV2 > 0 only) and its first non-finite node, as indices into the
// grid's arrays, or -1.
type digestPart struct {
	maxV2        float64
	maxAt, badAt int
}

// Begin starts a digest of src in parts pieces and returns the piece
// body: call it once with each p in [0, parts), concurrently if wanted,
// then End. src's blocks must be x-planes (the slab grid) or d's tiles
// (cubes of edge d.K); any other extent, a pencil say, is an error, not
// a tiling whose tiles span blocks. A piece digests one contiguous
// range of whole tiles — a range of cubes, or of tile rows of K planes
// (the last row may be ragged) — so no tile is written by two pieces and
// each tile sums its nodes in traversal order. The body is d.part bound
// once, so dispatching it on a worker team allocates nothing.
//
// A non-nil fresh is the state of src's records block by block, as an
// in-place engine keeps it (core.Support): a block whose entry is false
// has stale records, which the piece that digests it brings up to date
// in the same loop, node by node, right before folding the node in —
// kernel 7 without its force reset, on the natural-phase array
// (core.UpdateRange with a nil reset) — and then marks fresh. So an
// observed step reads each node's values once, not once to refresh and
// once to digest.
func (d *DigestGrid) Begin(src *Grid, parts int, fresh []bool) (func(p int), error) {
	if err := d.checkShape(src.Dims()); err != nil {
		return nil, err
	}
	dist, macro, ext := src.dist, src.macro, src.block
	if ext != [3]int{d.K, d.K, d.K} && ext != [3]int{1, d.NY, d.NZ} {
		return nil, fmt.Errorf("grid: %v blocks are neither x-planes nor %d³ digest tiles", ext, d.K)
	}
	if parts < 1 {
		return nil, fmt.Errorf("grid: digest in %d pieces", parts)
	}
	if cap(d.parts) < parts {
		d.parts = make([]digestPart, parts)
	}
	if d.run == nil {
		d.run = d.part
	}
	d.dist, d.macro, d.fresh, d.block, d.parts = dist, macro, fresh, ext, d.parts[:parts]
	return d.run, nil
}

// part digests piece p of the pass Begin started: its range of whole
// tiles, which it clears first, its blocks' stale records, and its slot
// of the merge.
func (d *DigestGrid) part(p int) {
	tiles := 1 // a block is one tile
	if d.block != [3]int{d.K, d.K, d.K} {
		tiles = d.TY * d.TZ // a block is one plane of a tile row
	}
	u0, u1 := d.units(p)
	clear(d.Tiles[u0*tiles : u1*tiles])
	lo, hi := d.blocks(p)
	part := digestPart{maxAt: -1, badAt: -1}
	for b := lo; b < hi; b++ {
		stale := d.fresh != nil && !d.fresh[b]
		d.foldBlock(b, stale, &part)
		if stale {
			d.fresh[b] = true
		}
	}
	d.parts[p] = part
}

// units returns piece p's range of whole tiles (cubes) or tile rows
// (slab grid) in the pass Begin started.
func (d *DigestGrid) units(p int) (u0, u1 int) {
	units := d.NumTiles()
	if d.block != [3]int{d.K, d.K, d.K} {
		units = d.TX
	}
	return par.StaticRange(units, len(d.parts), p)
}

// blocks returns the range [lo, hi) of the grid's blocks that piece p
// of the pass Begin started digests: the pieces' ranges partition the
// blocks in order.
func (d *DigestGrid) blocks(p int) (lo, hi int) {
	blocks := 1
	if d.block != [3]int{d.K, d.K, d.K} {
		blocks = d.K
	}
	u0, u1 := d.units(p)
	nb := d.NX / d.block[0] * (d.NY / d.block[1]) * (d.NZ / d.block[2])
	return min(u0*blocks, nb), min(u1*blocks, nb)
}

// End merges the pieces in range order — traversal order — keeping the
// first strictly fastest node and the first non-finite one, and derives
// the whole-grid aggregates.
func (d *DigestGrid) End() {
	maxV2, maxAt, badAt := 0.0, -1, -1
	for _, p := range d.parts {
		if p.maxV2 > maxV2 {
			maxV2, maxAt = p.maxV2, p.maxAt
		}
		if badAt < 0 {
			badAt = p.badAt
		}
	}
	d.MaxVelCell = [3]int{}
	if maxAt >= 0 {
		d.MaxVelCell = d.nodeCoord(maxAt)
	}
	d.BadCell, d.BadRho, d.BadVel = [3]int{-1, -1, -1}, 0, [3]float64{}
	if badAt >= 0 {
		n := &d.macro[badAt]
		d.BadCell, d.BadRho, d.BadVel = d.nodeCoord(badAt), n.Rho, n.Vel
	}
	d.dist, d.macro, d.fresh = nil, nil, nil
	d.finish()
}

// Fill digests src in one piece on the calling goroutine.
func (d *DigestGrid) Fill(src *Grid) error {
	part, err := d.Begin(src, 1, nil)
	if err != nil {
		return err
	}
	part(0)
	d.End()
	return nil
}

// blockOrigin returns the first node of block b in the pass's grid.
func (d *DigestGrid) blockOrigin(b int) [3]int {
	e := d.block
	by, bz := d.NY/e[1], d.NZ/e[2]
	return [3]int{b / (by * bz) * e[0], b / bz % by * e[1], b % bz * e[2]}
}

// nodeCoord returns the coordinate of the node at index i of the pass's
// arrays.
func (d *DigestGrid) nodeCoord(i int) [3]int {
	e := d.block
	n := e[0] * e[1] * e[2]
	o, l := d.blockOrigin(i/n), i%n
	return [3]int{o[0] + l/(e[1]*e[2]), o[1] + l/e[2]%e[1], o[2] + l%e[2]}
}

// foldBlock folds block b's nodes into their tiles — a cube in one run, a
// plane in one run per tile-wide stretch of each z-row — refreshing each
// node's record first if the block is stale.
func (d *DigestGrid) foldBlock(b int, stale bool, p *digestPart) {
	e, o := d.block, d.blockOrigin(b)
	i := b * e[0] * e[1] * e[2]
	if e == [3]int{d.K, d.K, d.K} {
		n := d.K * d.K * d.K
		foldRun(d.dist[i:i+n], d.macro[i:i+n], &d.Tiles[d.TileOf(o[0], o[1], o[2])], i, stale, p)
		return
	}
	for y := 0; y < d.NY; y++ {
		t := d.TileOf(o[0], y, 0)
		for z := 0; z < d.NZ; z, t = z+d.K, t+1 {
			n := min(d.K, d.NZ-z)
			foldRun(d.dist[i:i+n], d.macro[i:i+n], &d.Tiles[t], i, stale, p)
			i += n
		}
	}
}

// foldRun folds a run of consecutive nodes of one tile — distributions
// df and records m, the run's first node at index base — into the tile
// td and the piece's slot p. It is the per-node walk of the reference
// digest with the node work inlined: each node's mass is 0.0 + g[0] +
// … + g[18] left to right and added to the tile's in node order, the
// tile's maximum stays in a local, and the finiteness test is one
// branch-free sum. With refresh, each node's density and velocity are
// first recomputed from its values under its force (lattice.Moments,
// kernel 7's body), while the values are in cache for the fold.
func foldRun(df [][lattice.Q]float64, m []Macro, td *TileDigest, base int, refresh bool, p *digestPart) {
	m = m[:len(df)]
	mass, maxV2, bad, at := td.Mass, td.MaxVel2, td.NonFinite, -1
	for j := range df {
		g, n := &df[j], &m[j]
		if refresh {
			n.Rho = lattice.Moments(g, n.Force, &n.Vel)
		}
		nm := 0.0 + g[0] + g[1] + g[2] + g[3] + g[4] + g[5] + g[6] + g[7] + g[8] + g[9] +
			g[10] + g[11] + g[12] + g[13] + g[14] + g[15] + g[16] + g[17] + g[18]
		mass += nm
		if v2 := speed2(n.Vel); v2 > maxV2 {
			maxV2, at = v2, j
		}
		// x−x is 0 for a finite x and NaN for NaN or ±Inf, so the sum is
		// non-zero exactly when one of the five is NaN or infinite.
		if (n.Rho-n.Rho)+(n.Vel[0]-n.Vel[0])+(n.Vel[1]-n.Vel[1])+(n.Vel[2]-n.Vel[2])+(nm-nm) != 0 {
			bad++
			if p.badAt < 0 {
				p.badAt = base + j
			}
		}
	}
	td.Mass, td.MaxVel2, td.NonFinite = mass, maxV2, bad
	if at >= 0 && maxV2 > p.maxV2 {
		p.maxV2, p.maxAt = maxV2, base+at
	}
}

// Digest fills d from the grid's distributions, read in place, and its
// records in one pass on the calling goroutine (DigestGrid.Fill).
// d's dimensions must match the grid; the tile size is d.K.
func (g *Grid) Digest(d *DigestGrid) error { return d.Fill(g) }

// digestNode folds one node — its present distributions df, density rho
// and velocity v — into tile t, tracking the argmax-velocity and
// first-bad cells. It is the per-node walk Snapshot.Digest makes; Fill's
// body is held bitwise equal to it.
func (d *DigestGrid) digestNode(df *[lattice.Q]float64, rho float64, v [3]float64, t, x, y, z int) {
	td := &d.Tiles[t]
	mass := 0.0
	for _, g := range df {
		mass += g
	}
	td.Mass += mass
	v2 := speed2(v)
	if v2 > td.MaxVel2 {
		td.MaxVel2 = v2
		if v2 > d.MaxVel {
			d.MaxVel = v2 // holds v² during the pass; finish() square-roots it
			d.MaxVelCell = [3]int{x, y, z}
		}
	}
	if math.IsNaN(rho) || math.IsInf(rho, 0) ||
		math.IsNaN(v[0]) || math.IsInf(v[0], 0) ||
		math.IsNaN(v[1]) || math.IsInf(v[1], 0) ||
		math.IsNaN(v[2]) || math.IsInf(v[2], 0) ||
		math.IsNaN(mass) || math.IsInf(mass, 0) {
		td.NonFinite++
		if d.BadCell[0] < 0 {
			d.BadCell = [3]int{x, y, z}
			d.BadRho, d.BadVel = rho, v
		}
	}
}

// Digest fills d from the snapshot in one pass, as Grid.Digest does from
// a grid.
func (s *Snapshot) Digest(d *DigestGrid) error {
	if err := d.checkShape(s.NX, s.NY, s.NZ); err != nil {
		return err
	}
	d.reset()
	i := 0
	for x := 0; x < s.NX; x++ {
		tx := (x / d.K) * d.TY * d.TZ
		for y := 0; y < s.NY; y++ {
			txy := tx + (y/d.K)*d.TZ
			for z := 0; z < s.NZ; z++ {
				n := &s.Nodes[i]
				d.digestNode(&n.DF, n.Rho, n.Vel, txy+z/d.K, x, y, z)
				i++
			}
		}
	}
	d.finish()
	return nil
}

func (d *DigestGrid) checkShape(nx, ny, nz int) error {
	if d.NX != nx || d.NY != ny || d.NZ != nz {
		return fmt.Errorf("grid: digest shaped %d×%d×%d, grid %d×%d×%d", d.NX, d.NY, d.NZ, nx, ny, nz)
	}
	return nil
}
