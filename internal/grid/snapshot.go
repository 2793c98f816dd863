package grid

import (
	"math"

	"lbmib/internal/lattice"
)

// Node is one fluid node as the paper's Figure 3 stores it: both
// distribution buffers and the record in one struct, 360 bytes. It is the
// per-node record of Snapshot and of the version-1 checkpoint stream (an
// encoding/gob stream of []Node, which is why its fields stay flat and
// DFNew stays); no engine steps it.
type Node struct {
	DF    [lattice.Q]float64 // present velocity distribution g_i
	DFNew [lattice.Q]float64 // post-streaming distribution; zero in a Snapshot
	Vel   [3]float64         // macroscopic velocity u
	Rho   float64            // macroscopic density ρ
	Force [3]float64         // elastic force density from the structure
}

// Buf returns distribution buffer b of the node: 0 is the DF field, 1 the
// DFNew field. A Snapshot's present distributions are always in DF, so
// n.Buf(s.Cur()) is DF; the pair survives for the benchmark harness,
// which reads a snapshot through it.
func (n *Node) Buf(b int) *[lattice.Q]float64 {
	if b == 0 {
		return &n.DF
	}
	return &n.DFNew
}

// Snapshot is an engine-independent copy of a fluid state: one Node per
// fluid node in x-major order, index (x*NY + y)*NZ + z, holding the
// present distributions in DF (DFNew stays zero), ρ, u and the force. It
// owns its memory, so stepping the engine it was taken from does not
// change it.
type Snapshot struct {
	NX, NY, NZ int
	Nodes      []Node
}

// NewSnapshot allocates a zeroed nx×ny×nz snapshot.
func NewSnapshot(nx, ny, nz int) *Snapshot {
	return &Snapshot{NX: nx, NY: ny, NZ: nz, Nodes: make([]Node, nx*ny*nz)}
}

// Dims returns the fluid grid dimensions.
func (s *Snapshot) Dims() (nx, ny, nz int) { return s.NX, s.NY, s.NZ }

// Idx returns the flat index of node (x, y, z).
func (s *Snapshot) Idx(x, y, z int) int { return (x*s.NY+y)*s.NZ + z }

// At returns node (x, y, z).
func (s *Snapshot) At(x, y, z int) *Node { return &s.Nodes[s.Idx(x, y, z)] }

// Cur returns the snapshot's buffer index for Node.Buf, always 0: the
// present distributions are in DF.
func (s *Snapshot) Cur() int { return 0 }

// Record returns node i's present distributions and its record.
func (s *Snapshot) Record(i int) ([lattice.Q]float64, Macro) {
	n := &s.Nodes[i]
	return n.DF, Macro{Vel: n.Vel, Rho: n.Rho, Force: n.Force}
}

// TotalMass returns Σ_nodes Σ_i g_i over the present distributions, in
// x-major node order.
func (s *Snapshot) TotalMass() float64 {
	sum := 0.0
	for i := range s.Nodes {
		for _, v := range &s.Nodes[i].DF {
			sum += v
		}
	}
	return sum
}

// MaxVelocity returns the largest velocity magnitude over all nodes.
func (s *Snapshot) MaxVelocity() float64 {
	max := 0.0
	for i := range s.Nodes {
		if m2 := speed2(s.Nodes[i].Vel); m2 > max {
			max = m2
		}
	}
	return math.Sqrt(max)
}
