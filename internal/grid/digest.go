package grid

import (
	"fmt"
	"math"

	"lbmib/internal/lattice"
)

// TileDigest is the per-tile health summary of one k×k×k block of fluid
// nodes: the block's distribution mass, its largest squared speed, and
// how many of its scalar fields are NaN/Inf. Tiles coincide with the
// cube engine's cubes when the tile size equals the cube size, which is
// what lets the flight recorder's fault localization name the cube a
// blow-up started in.
type TileDigest struct {
	Mass      float64 `json:"mass"`
	MaxVel2   float64 `json:"maxVel2"`
	NonFinite int32   `json:"nonFinite,omitempty"`
}

// DigestGrid is one full per-tile digest of a fluid grid, plus the
// whole-grid aggregates the physics watchdog checks. The tile grid is a
// ceil-division of the fluid grid: edge tiles are smaller when K does
// not divide a dimension, so every fluid shape (not just cube-divisible
// ones) can be digested.
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

// digestNode folds one node — its present distributions df, density rho
// and velocity v — into tile t, tracking the argmax-velocity and
// first-bad cells.
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

// DigestCubeMajor fills d from a state stored cube-major — present
// distributions dist and records macro in contiguous cubeK³ blocks in
// (cx*CY+cy)*CZ+cz order, z-fastest within a block, the cube engine's
// layout. It digests the blocks in storage order, so
// the cube engine avoids the strided walk a slab-order pass would make
// over its memory. The tiles must be the cubes (cubeK == d.K), so each
// cube is one tile and the tile index is hoisted out of the inner loops.
func (d *DigestGrid) DigestCubeMajor(dist [][lattice.Q]float64, macro []Macro, cubeK int) error {
	if n := d.NX * d.NY * d.NZ; len(dist) != n || len(macro) != n {
		return fmt.Errorf("grid: digest over %d cube-major nodes, want %d", len(macro), n)
	}
	if cubeK < 1 || d.NX%cubeK != 0 || d.NY%cubeK != 0 || d.NZ%cubeK != 0 {
		return fmt.Errorf("grid: cube size %d does not tile %d×%d×%d", cubeK, d.NX, d.NY, d.NZ)
	}
	if cubeK != d.K {
		return fmt.Errorf("grid: cube size %d is not the digest tile size %d", cubeK, d.K)
	}
	d.reset()
	k := cubeK
	cy, cz := d.NY/k, d.NZ/k
	i := 0
	for cx := 0; cx < d.NX/k; cx++ {
		for cyi := 0; cyi < cy; cyi++ {
			for czi := 0; czi < cz; czi++ {
				x0, y0, z0 := cx*k, cyi*k, czi*k
				t := d.TileIndex(cx, cyi, czi)
				for lx := 0; lx < k; lx++ {
					for ly := 0; ly < k; ly++ {
						for lz := 0; lz < k; lz++ {
							m := &macro[i]
							d.digestNode(&dist[i], m.Rho, m.Vel, t, x0+lx, y0+ly, z0+lz)
							i++
						}
					}
				}
			}
		}
	}
	d.finish()
	return nil
}

// Digest fills d from the grid's present buffer and records in one pass.
// d's dimensions must match the grid; the tile size is d.K.
func (g *Grid) Digest(d *DigestGrid) error {
	if err := d.checkShape(g.NX, g.NY, g.NZ); err != nil {
		return err
	}
	d.reset()
	dist, i := g.dist[g.cur], 0
	for x := 0; x < g.NX; x++ {
		tx := (x / d.K) * d.TY * d.TZ
		for y := 0; y < g.NY; y++ {
			txy := tx + (y/d.K)*d.TZ
			for z := 0; z < g.NZ; z++ {
				m := &g.macro[i]
				d.digestNode(&dist[i], m.Rho, m.Vel, txy+z/d.K, x, y, z)
				i++
			}
		}
	}
	d.finish()
	return nil
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
