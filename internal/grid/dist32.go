package grid

import (
	"fmt"

	"lbmib/internal/lattice"
)

// Dist32 stores the two velocity-distribution buffers of a fluid grid as
// float32, the optional storage mode of the fused engine: arithmetic stays
// float64 (values are widened on load and rounded once on store), but the
// per-step memory traffic over the distributions — the dominant term of an
// LBM sweep — is halved. Layout is node-major, matching the grid's flat
// index: value q of node i lives at Buf(b)[i*lattice.Q+q].
//
// The buffers mirror Grid's parity convention: Buf(Cur()) is the present
// buffer and Buf(1-Cur()) the post-streaming one, with Swap flipping the
// parity in O(1). A Dist32 always shadows a full-precision Grid that keeps
// carrying the records (and whose own float64 distribution buffers simply
// go stale); FromGrid and Materialize move distributions across that
// boundary. Because every float32 widens to float64 exactly,
// a Materialize→checkpoint→restore→FromGrid round trip is bitwise.
type Dist32 struct {
	NX, NY, NZ int
	bufs       [2][]float32
	cur        int
}

// NewDist32 allocates float32 distribution storage for an nx×ny×nz grid
// with both buffers zeroed and parity 0. It panics on non-positive
// dimensions, mirroring New.
func NewDist32(nx, ny, nz int) *Dist32 {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %d×%d×%d", nx, ny, nz))
	}
	n := nx * ny * nz * lattice.Q
	return &Dist32{NX: nx, NY: ny, NZ: nz, bufs: [2][]float32{make([]float32, n), make([]float32, n)}}
}

// Cur returns the buffer parity: the present buffer is Buf(Cur()).
func (d *Dist32) Cur() int { return d.cur }

// Swap flips the buffer parity so the post-streaming buffer becomes the
// present one, the float32 counterpart of Grid.Swap.
func (d *Dist32) Swap() { d.cur ^= 1 }

// Buf returns distribution buffer b (0 or 1) as one node-major slice.
func (d *Dist32) Buf(b int) []float32 { return d.bufs[b] }

// FromGrid loads the grid's present distribution buffer, rounding each
// value to float32, and resets the parity to 0. The post-streaming buffer
// is left as scratch (every slot is overwritten by the next sweep).
func (d *Dist32) FromGrid(g *Grid) error {
	if err := d.checkShape(g); err != nil {
		return err
	}
	dst := d.bufs[0]
	for i, buf := range g.dist[g.cur] {
		base := i * lattice.Q
		for q := 0; q < lattice.Q; q++ {
			dst[base+q] = float32(buf[q])
		}
	}
	d.cur = 0
	return nil
}

// Materialize widens the present float32 buffer into the grid's present
// float64 buffer — the live state snapshots, serialization and digesting
// read; the grid's other buffer is left alone. The widening is exact, so
// state that originated in float32 survives a checkpoint round trip
// bitwise.
func (d *Dist32) Materialize(g *Grid) error {
	if err := d.checkShape(g); err != nil {
		return err
	}
	src := d.bufs[d.cur]
	dst := g.dist[g.cur]
	for i := range dst {
		base := i * lattice.Q
		for q := 0; q < lattice.Q; q++ {
			dst[i][q] = float64(src[base+q])
		}
	}
	return nil
}

// TotalMass sums the present buffer, widened, node by node in index
// order: bit for bit what Materialize followed by Grid.TotalMass returns,
// since widening is exact and the order is the same, without writing the
// grid.
func (d *Dist32) TotalMass() float64 {
	sum := 0.0
	for _, v := range d.bufs[d.cur] {
		sum += float64(v)
	}
	return sum
}

func (d *Dist32) checkShape(g *Grid) error {
	if g.NX != d.NX || g.NY != d.NY || g.NZ != d.NZ {
		return fmt.Errorf("grid: dist32 shape %d×%d×%d does not match grid %d×%d×%d",
			d.NX, d.NY, d.NZ, g.NX, g.NY, g.NZ)
	}
	return nil
}
