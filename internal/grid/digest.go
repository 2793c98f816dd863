package grid

import (
	"fmt"
	"math"

	"lbmib/internal/lattice"
	"lbmib/internal/par"
)

// TileDigest is the per-tile health summary of one k×k×k block of fluid
// nodes: the block's mass, its largest squared speed, and how many of
// its nodes have a NaN or infinite density or velocity component. Tiles
// coincide with the cube engine's cubes when the tile size equals the
// cube size, which is what lets the flight recorder's fault localization
// name the cube a blow-up started in.
//
// A tile's mass is the sum of its nodes' densities ρ, the moments of
// their present distributions (lattice.Moments) — not the sum of the
// distribution values themselves, which differs in the last bits. It is
// summed x-layer by x-layer: each layer's ρ in (y, z) order from 0.0,
// then the layers in x order from 0.0. Every path that fills a digest
// sums in that order — a collide sweep that digests the state it is
// about to overwrite (DigestRow), the pass over a grid between steps
// (Begin, Fill) and the reference walk over a snapshot — so the digest
// of one state is the same bits whichever path took it, at any team
// width, on x-planes or on cubes.
type TileDigest struct {
	Mass      float64 `json:"mass"`
	MaxVel2   float64 `json:"maxVel2"`
	NonFinite int32   `json:"nonFinite,omitempty"`
}

// DigestSlot is what one x-layer of one tile contributes to a digest:
// its nodes' ρ summed in (y, z) order, their largest squared speed, the
// count of nodes with a non-finite ρ or u, and the first node (by
// lattice index (x·NY + y)·NZ + z) that is strictly the layer's fastest
// and the first non-finite one with its ρ and u. Only the owner of the
// block that holds the layer writes a slot, so workers fill slots
// concurrently with no synchronization; the digest reduces them once the
// team has joined (Reduce).
type DigestSlot struct {
	Mass, MaxVel2 float64
	BadRho        float64
	BadVel        [3]float64
	NonFinite     int32
	MaxAt, BadAt  int32
}

// add folds one node — density rho, velocity u, lattice index at — into
// the slot.
func (s *DigestSlot) add(rho float64, u *[3]float64, at int32) {
	s.Mass += rho
	if v2 := u[0]*u[0] + u[1]*u[1] + u[2]*u[2]; v2 > s.MaxVel2 {
		s.MaxVel2, s.MaxAt = v2, at
	}
	// x−x is 0 for a finite x and NaN for NaN or ±Inf, so the sum is
	// non-zero exactly when one of the four is NaN or infinite.
	if (rho-rho)+(u[0]-u[0])+(u[1]-u[1])+(u[2]-u[2]) != 0 {
		if s.NonFinite == 0 {
			s.BadAt, s.BadRho, s.BadVel = at, rho, *u
		}
		s.NonFinite++
	}
}

// DigestRow is the write side of a digest's slots for one z-row (x, y)
// of the lattice: each node of the row is added with its density and
// velocity, in z order.
type DigestRow struct {
	slots []DigestSlot // the slots of layer x in tile row y/K
	tz    []int32      // the tile column of each z
	at    int32        // the lattice index of (x, y, 0)
}

// Add folds node (x, y, z) of the row, density rho and velocity u, into
// its slot.
func (r *DigestRow) Add(z int, rho float64, u *[3]float64) {
	r.slots[r.tz[z]].add(rho, u, r.at+int32(z))
}

// DigestGrid is one full per-tile digest of a fluid grid, plus the
// whole-grid aggregates the physics watchdog checks. The tile grid is a
// ceil-division of the fluid grid: edge tiles are smaller when K does
// not divide a dimension, so every fluid shape (not just cube-divisible
// ones) can be digested.
//
// The digest is filled in two stages. Whoever visits a node adds its ρ
// and u to the slot of its x-layer and tile (DigestSlot): a collide sweep
// over a block, through Row after ClearSlots; a pass over a grid between
// steps, Fill on the calling goroutine or Begin's pieces on a worker
// team; or the walk over a snapshot. Then Reduce — End, after Begin —
// folds the slots into the tiles and the aggregates in lattice order, so
// no field depends on who visited which node or in what order the
// visitors ran.
type DigestGrid struct {
	K          int // tile edge (nodes)
	NX, NY, NZ int // fluid grid dimensions
	TX, TY, TZ int // tile grid dimensions (ceil(N/K))
	Tiles      []TileDigest

	// Whole-grid aggregates, derived by Reduce.
	Mass      float64
	MaxVel    float64
	NonFinite int

	// MaxVelCell is the coordinate of the fastest node, the first in
	// lattice order on ties, and BadCell the first node with a
	// non-finite ρ or u (or {-1,-1,-1} when all nodes are finite);
	// BadRho and BadVel are that node's ρ and u, so a report can name the
	// field that broke — the evidence HealthError reports.
	MaxVelCell [3]int
	BadCell    [3]int
	BadRho     float64
	BadVel     [3]float64

	// slots[(x·TY + ty)·TZ + tz] is x-layer x of tile column (ty, tz);
	// tz[z] is the tile column of z.
	slots []DigestSlot
	tz    []int32

	// The pass in progress, from Begin to End: the grid's arrays, its
	// record state and block extent, the piece count, and part bound
	// once.
	src    *Grid
	macro  []Macro
	fresh  []bool
	block  [3]int
	blocks int
	parts  int
	run    func(p int)
}

// NewDigestGrid allocates a digest for an nx×ny×nz grid at tile size k.
func NewDigestGrid(nx, ny, nz, k int) (*DigestGrid, error) {
	if k < 1 {
		return nil, fmt.Errorf("grid: non-positive digest tile size %d", k)
	}
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("grid: non-positive digest dimensions %d×%d×%d", nx, ny, nz)
	}
	if nx*ny*nz > math.MaxInt32 {
		return nil, fmt.Errorf("grid: %d×%d×%d nodes overflow a digest's node index", nx, ny, nz)
	}
	d := &DigestGrid{
		K: k, NX: nx, NY: ny, NZ: nz,
		TX: (nx + k - 1) / k, TY: (ny + k - 1) / k, TZ: (nz + k - 1) / k,
	}
	d.Tiles = make([]TileDigest, d.TX*d.TY*d.TZ)
	d.slots = make([]DigestSlot, nx*d.TY*d.TZ)
	d.tz = make([]int32, nz)
	for z := range d.tz {
		d.tz[z] = int32(z / k)
	}
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

// Row returns the slots of z-row (x, y) for a visitor adding its nodes.
func (d *DigestGrid) Row(x, y int) DigestRow {
	i := (x*d.TY + y/d.K) * d.TZ
	return DigestRow{slots: d.slots[i : i+d.TZ], tz: d.tz, at: int32((x*d.NY + y) * d.NZ)}
}

// ClearSlots empties the slots of the box with origin o and extent e
// before a visitor adds its nodes: every x-layer of every tile the box
// meets. The box's y and z faces must lie on tile faces or on the grid's
// ends — an x-plane, or a cube of edge K — so that no slot is shared
// with another box and the box's owner alone writes them.
func (d *DigestGrid) ClearSlots(o, e [3]int) {
	ty0, ty1 := o[1]/d.K, (o[1]+e[1]+d.K-1)/d.K
	tz0, tz1 := o[2]/d.K, (o[2]+e[2]+d.K-1)/d.K
	for x := o[0]; x < o[0]+e[0]; x++ {
		for ty := ty0; ty < ty1; ty++ {
			i := (x*d.TY + ty) * d.TZ
			clear(d.slots[i+tz0 : i+tz1])
		}
	}
}

// Reduce derives the tiles and the whole-grid aggregates from the
// slots, which must hold every node of the grid: a tile's mass is its
// layers' masses added in x order from 0.0, its maximum and count those
// of its layers; the grid's mass is the tiles' added in tile order. The
// fastest node is the first, in lattice order, of the layers' fastest
// that share the largest speed, and the first bad node the first of the
// layers' first bad nodes.
func (d *DigestGrid) Reduce() {
	maxV2, maxAt := 0.0, int32(-1)
	var bad *DigestSlot
	d.Mass, d.NonFinite = 0, 0
	for t := range d.Tiles {
		tx, ty, tz := d.TileCoord(t)
		var td TileDigest
		for x := tx * d.K; x < min(tx*d.K+d.K, d.NX); x++ {
			s := &d.slots[(x*d.TY+ty)*d.TZ+tz]
			td.Mass += s.Mass
			td.MaxVel2 = max(td.MaxVel2, s.MaxVel2)
			td.NonFinite += s.NonFinite
			if s.MaxVel2 > maxV2 || s.MaxVel2 == maxV2 && s.MaxAt >= 0 && s.MaxAt < maxAt {
				maxV2, maxAt = s.MaxVel2, s.MaxAt
			}
			if s.NonFinite > 0 && (bad == nil || s.BadAt < bad.BadAt) {
				bad = s
			}
		}
		d.Tiles[t] = td
		d.Mass += td.Mass
		d.NonFinite += int(td.NonFinite)
	}
	d.MaxVel = math.Sqrt(maxV2)
	d.MaxVelCell = [3]int{}
	if maxAt >= 0 {
		d.MaxVelCell = d.coord(maxAt)
	}
	d.BadCell, d.BadRho, d.BadVel = [3]int{-1, -1, -1}, 0, [3]float64{}
	if bad != nil {
		d.BadCell, d.BadRho, d.BadVel = d.coord(bad.BadAt), bad.BadRho, bad.BadVel
	}
}

// coord returns the lattice coordinate of lattice index at.
func (d *DigestGrid) coord(at int32) [3]int {
	i := int(at)
	return [3]int{i / (d.NY * d.NZ), i / d.NZ % d.NY, i % d.NZ}
}

// Begin starts a digest of src in parts pieces and returns the piece
// body: call it once with each p in [0, parts), concurrently if wanted,
// then End. src's blocks must be x-planes (the slab grid) or d's tiles
// (cubes of edge d.K); any other extent, a pencil say, is an error, not
// a tiling whose tiles span blocks. A piece visits one contiguous range
// of blocks, each block's nodes in storage order, and adds them to the
// block's own slots (ClearSlots), so no slot is written by two pieces.
// The body is d.part bound once, so dispatching it on a worker team
// allocates nothing.
//
// A non-nil fresh is the state of src's records block by block, as an
// in-place engine keeps it (core.Support): a block whose entry is false
// has stale records, which the piece that digests it brings up to date
// in the same loop, node by node, right before adding the node — kernel
// 7 without its force reset, on the natural-phase array
// (core.UpdateRange with a nil reset) — and then marks fresh. So a
// digest between steps reads each node's values once, not once to
// refresh and once to digest.
func (d *DigestGrid) Begin(src *Grid, parts int, fresh []bool) (func(p int), error) {
	if err := d.Fits(src); err != nil {
		return nil, err
	}
	if parts < 1 {
		return nil, fmt.Errorf("grid: digest in %d pieces", parts)
	}
	if d.run == nil {
		d.run = d.part
	}
	d.src, d.macro, d.fresh, d.block = src, src.macro, fresh, src.block
	d.blocks, d.parts = src.NumBlocks(), parts
	return d.run, nil
}

// Fits reports whether src can be digested into d block by block: its
// dimensions are d's and its blocks x-planes or d's tiles, so that no
// slot spans two blocks.
func (d *DigestGrid) Fits(src *Grid) error {
	if err := d.checkShape(src.Dims()); err != nil {
		return err
	}
	if ext := src.block; ext != [3]int{d.K, d.K, d.K} && ext != [3]int{1, d.NY, d.NZ} {
		return fmt.Errorf("grid: %v blocks are neither x-planes nor %d³ digest tiles", ext, d.K)
	}
	return nil
}

// part digests piece p of the pass Begin started: its range of blocks,
// refreshing the stale ones as it goes.
func (d *DigestGrid) part(p int) {
	lo, hi := par.StaticRange(d.blocks, d.parts, p)
	for b := lo; b < hi; b++ {
		stale := d.fresh != nil && !d.fresh[b]
		d.addBlock(b, stale)
		if stale {
			d.fresh[b] = true
		}
	}
}

// End reduces the slots the pieces filled (Reduce) and ends the pass.
func (d *DigestGrid) End() {
	d.src, d.macro, d.fresh = nil, nil, nil
	d.Reduce()
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

// addBlock adds block b's nodes to their slots in storage order,
// refreshing each z-row's records first if the block is stale: their
// density and velocity recomputed from their values under their force
// (lattice.MomentsGroup, kernel 7's body, four nodes per call), while
// the values are in cache.
func (d *DigestGrid) addBlock(b int, stale bool) {
	e := d.block
	by, bz := d.NY/e[1], d.NZ/e[2]
	o := [3]int{b / (by * bz) * e[0], b / bz % by * e[1], b % bz * e[2]}
	d.ClearSlots(o, e)
	i := b * e[0] * e[1] * e[2]
	nat := lattice.Natural(d.src.stride)
	grp := lattice.Uniform(&nat, &nat)
	for x := o[0]; x < o[0]+e[0]; x++ {
		for y := o[1]; y < o[1]+e[1]; y++ {
			row, rec := d.Row(x, y), d.macro[i:i+e[2]]
			if stale {
				for z := 0; z < e[2]; z += lattice.Lanes {
					n := min(lattice.Lanes, e[2]-z)
					lattice.MomentsGroup(d.src.dist, i+z, n, &grp, rec[z:z+n], nil)
				}
			}
			for z := range rec {
				row.Add(o[2]+z, rec[z].Rho, &rec[z].Vel)
			}
			i += e[2]
		}
	}
}

// Digest fills d from the grid's records in one pass on the calling
// goroutine (DigestGrid.Fill). d's dimensions must match the grid; the
// tile size is d.K.
func (g *Grid) Digest(d *DigestGrid) error { return d.Fill(g) }

// Digest fills d from the snapshot's records, as Grid.Digest does from
// a grid: the reference walk, node by node in lattice order.
func (s *Snapshot) Digest(d *DigestGrid) error {
	if err := d.checkShape(s.NX, s.NY, s.NZ); err != nil {
		return err
	}
	clear(d.slots)
	i := 0
	for x := 0; x < s.NX; x++ {
		for y := 0; y < s.NY; y++ {
			row := d.Row(x, y)
			for z := 0; z < s.NZ; z++ {
				n := &s.Nodes[i]
				row.Add(z, n.Rho, &n.Vel)
				i++
			}
		}
	}
	d.Reduce()
	return nil
}

func (d *DigestGrid) checkShape(nx, ny, nz int) error {
	if d.NX != nx || d.NY != ny || d.NZ != nz {
		return fmt.Errorf("grid: digest shaped %d×%d×%d, grid %d×%d×%d", d.NX, d.NY, d.NZ, nx, ny, nz)
	}
	return nil
}
