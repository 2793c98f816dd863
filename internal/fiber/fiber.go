// Package fiber implements the immersed flexible structure of the LBM-IB
// method: a 2D sheet made of an array of fibers, each fiber a list of fiber
// nodes (Figure 4 of the paper). It provides the three structure kernels of
// Algorithm 1:
//
//  1. compute_bending_force_in_fibers   (ComputeBendingForce)
//  2. compute_stretching_force_in_fibers (ComputeStretchingForce)
//  3. compute_elastic_force_in_fibers   (ComputeElasticForce)
//
// Forces are derived from a discrete elastic energy so that the free sheet
// conserves momentum exactly: the bending force is the negative gradient of
// E_b = (Kb/2) Σ |X_{s-1} − 2X_s + X_{s+1}|² along both sheet directions
// (the 8-neighbor stencil the paper describes: two nodes left/right along
// the fiber and two above/below across fibers), and the stretching force is
// the gradient of harmonic springs between axial neighbors with the initial
// spacing as rest length.
//
// All kernels are written in gather form — each node's force is a pure
// function of its neighbors' positions — so the parallel solvers can
// partition nodes across threads with no write conflicts.
package fiber

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector in lattice units.
type Vec3 = [3]float64

// Sheet is a flexible 2D structure of NumFibers fibers with NodesPerFiber
// nodes each. Node (f, s) — fiber f, arc index s — is stored at flat index
// f*NodesPerFiber + s, so a single fiber is contiguous in memory exactly as
// in the paper's 1D-array-of-fibers layout.
type Sheet struct {
	NumFibers     int // number of fibers (rows of the sheet)
	NodesPerFiber int // fiber nodes along each fiber

	Ks float64 // stretching stiffness
	Kb float64 // bending stiffness

	// RestAlong and RestAcross are the rest spacings between neighboring
	// nodes along a fiber and between adjacent fibers; they are fixed from
	// the initial configuration.
	RestAlong, RestAcross float64

	X            []Vec3 // node positions
	Vel          []Vec3 // node velocities (interpolated from the fluid)
	BendForce    []Vec3 // kernel-1 output
	StretchForce []Vec3 // kernel-2 output
	Force        []Vec3 // kernel-3 output: bending + stretching

	// Fixed marks nodes that are fastened (Figure 1's plate is fastened in
	// the middle region): a fixed node still exerts elastic force on the
	// fluid but does not move.
	Fixed []bool
}

// Params configures NewSheet.
type Params struct {
	NumFibers     int     // fibers across the sheet
	NodesPerFiber int     // nodes per fiber
	Width         float64 // physical extent across fibers (lattice units)
	Height        float64 // physical extent along each fiber (lattice units)
	Origin        Vec3    // position of node (0, 0)
	Ks, Kb        float64 // elastic stiffnesses
}

// NewSheet builds a flat rectangular sheet in the y–z plane at x =
// Origin[0]: fiber f runs along z at y = Origin[1] + f·RestAcross. This is
// the configuration of the paper's experiments (a sheet facing the flow
// direction x). It panics if the node counts cannot form a sheet.
func NewSheet(p Params) *Sheet {
	if p.NumFibers < 1 || p.NodesPerFiber < 1 {
		panic(fmt.Sprintf("fiber: invalid sheet %d×%d", p.NumFibers, p.NodesPerFiber))
	}
	n := p.NumFibers * p.NodesPerFiber
	s := &Sheet{
		NumFibers:     p.NumFibers,
		NodesPerFiber: p.NodesPerFiber,
		Ks:            p.Ks,
		Kb:            p.Kb,
		X:             make([]Vec3, n),
		Vel:           make([]Vec3, n),
		BendForce:     make([]Vec3, n),
		StretchForce:  make([]Vec3, n),
		Force:         make([]Vec3, n),
		Fixed:         make([]bool, n),
	}
	if p.NumFibers > 1 {
		s.RestAcross = p.Width / float64(p.NumFibers-1)
	} else {
		s.RestAcross = p.Width
	}
	if p.NodesPerFiber > 1 {
		s.RestAlong = p.Height / float64(p.NodesPerFiber-1)
	} else {
		s.RestAlong = p.Height
	}
	for f := 0; f < p.NumFibers; f++ {
		for k := 0; k < p.NodesPerFiber; k++ {
			s.X[s.Idx(f, k)] = Vec3{
				p.Origin[0],
				p.Origin[1] + float64(f)*s.RestAcross,
				p.Origin[2] + float64(k)*s.RestAlong,
			}
		}
	}
	return s
}

// Idx returns the flat index of node s on fiber f.
func (s *Sheet) Idx(f, k int) int { return f*s.NodesPerFiber + k }

// NumNodes returns the total number of fiber nodes.
func (s *Sheet) NumNodes() int { return len(s.X) }

// curvature returns X[i-1] − 2X[i] + X[i+1] along the given stride, or the
// zero vector when the stencil leaves the sheet (free-end boundary).
func (s *Sheet) curvature(f, k, df, dk int) Vec3 {
	fm, km := f-df, k-dk
	fp, kp := f+df, k+dk
	if fm < 0 || fp >= s.NumFibers || km < 0 || kp >= s.NodesPerFiber {
		return Vec3{}
	}
	c := s.X[s.Idx(f, k)]
	m := s.X[s.Idx(fm, km)]
	p := s.X[s.Idx(fp, kp)]
	return Vec3{m[0] - 2*c[0] + p[0], m[1] - 2*c[1] + p[1], m[2] - 2*c[2] + p[2]}
}

// BendingForceAt computes the bending force on node (f, k): the negative
// gradient of the discrete bending energy along both sheet directions. In
// the sheet interior this reduces to the classic 5-point fourth-derivative
// stencil −Kb(X_{s−2} − 4X_{s−1} + 6X_s − 4X_{s+1} + X_{s+2}) applied along
// the fiber and across fibers — i.e. the 8-neighbor dependence of kernel 1.
func (s *Sheet) BendingForceAt(f, k int) Vec3 {
	var out Vec3
	for _, dir := range [2][2]int{{0, 1}, {1, 0}} { // along fiber, across fibers
		df, dk := dir[0], dir[1]
		// dE/dX_s = Kb (C_{s−1} − 2 C_s + C_{s+1}), F = −dE/dX.
		cm := s.curvature(f-df, k-dk, df, dk)
		c0 := s.curvature(f, k, df, dk)
		cp := s.curvature(f+df, k+dk, df, dk)
		for d := 0; d < 3; d++ {
			out[d] -= s.Kb * (cm[d] - 2*c0[d] + cp[d])
		}
	}
	return out
}

// StretchingForceAt computes the stretching force on node (f, k) from
// harmonic springs to its four axial neighbors (left and right along the
// fiber with rest length RestAlong; the corresponding nodes on the two
// adjacent fibers with rest length RestAcross) — the 4-neighbor dependence
// of kernel 2.
func (s *Sheet) StretchingForceAt(f, k int) Vec3 {
	var out Vec3
	xi := s.X[s.Idx(f, k)]
	addSpring := func(fj, kj int, rest float64) {
		if fj < 0 || fj >= s.NumFibers || kj < 0 || kj >= s.NodesPerFiber {
			return
		}
		xj := s.X[s.Idx(fj, kj)]
		dx := Vec3{xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]}
		dist := math.Sqrt(dx[0]*dx[0] + dx[1]*dx[1] + dx[2]*dx[2])
		if dist == 0 { // only exact coincidence divides by zero below; near-zero distances are fine
			return // coincident nodes exert no well-defined spring force
		}
		coeff := s.Ks * (dist - rest) / dist
		out[0] += coeff * dx[0]
		out[1] += coeff * dx[1]
		out[2] += coeff * dx[2]
	}
	addSpring(f, k-1, s.RestAlong)
	addSpring(f, k+1, s.RestAlong)
	addSpring(f-1, k, s.RestAcross)
	addSpring(f+1, k, s.RestAcross)
	return out
}

// ComputeBendingForce runs kernel 1 over nodes [lo, hi) in flat order,
// writing BendForce. The half-open range lets parallel solvers partition
// the sheet; pass (0, s.NumNodes()) for the whole structure.
//
// Two or more nodes from every edge BendingForceAt's stencil stays on
// the sheet, and the node takes the same differences in the same order
// along the flat strides 1 (its fiber) and NodesPerFiber (across fibers)
// with no bounds to test — bitwise BendingForceAt.
func (s *Sheet) ComputeBendingForce(lo, hi int) {
	n := s.NodesPerFiber
	f, k := lo/n, lo%n
	for i := lo; i < hi; i, k = i+1, k+1 {
		if k == n {
			f, k = f+1, 0
		}
		if f < 2 || f >= s.NumFibers-2 || k < 2 || k >= n-2 {
			s.BendForce[i] = s.BendingForceAt(f, k)
			continue
		}
		var out Vec3
		for _, d := range [2]int{1, n} {
			x := [5]*Vec3{&s.X[i-2*d], &s.X[i-d], &s.X[i], &s.X[i+d], &s.X[i+2*d]}
			for c := 0; c < 3; c++ {
				cm := x[0][c] - 2*x[1][c] + x[2][c]
				c0 := x[1][c] - 2*x[2][c] + x[3][c]
				cp := x[2][c] - 2*x[3][c] + x[4][c]
				out[c] -= s.Kb * (cm - 2*c0 + cp)
			}
		}
		s.BendForce[i] = out
	}
}

// ComputeStretchingForce runs kernel 2 over nodes [lo, hi), writing
// StretchForce.
//
// One or more nodes from every edge all four of StretchingForceAt's
// springs stay on the sheet, and the node adds them in the same order
// and by the same arithmetic at the flat strides 1 (its fiber) and
// NodesPerFiber (across fibers) with no bounds to test — bitwise
// StretchingForceAt.
func (s *Sheet) ComputeStretchingForce(lo, hi int) {
	n := s.NodesPerFiber
	f, k := lo/n, lo%n
	for i := lo; i < hi; i, k = i+1, k+1 {
		if k == n {
			f, k = f+1, 0
		}
		if f < 1 || f >= s.NumFibers-1 || k < 1 || k >= n-1 {
			s.StretchForce[i] = s.StretchingForceAt(f, k)
			continue
		}
		var out Vec3
		xi := &s.X[i]
		for _, sp := range [4]struct {
			d    int
			rest float64
		}{{-1, s.RestAlong}, {1, s.RestAlong}, {-n, s.RestAcross}, {n, s.RestAcross}} {
			xj := &s.X[i+sp.d]
			dx := Vec3{xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]}
			dist := math.Sqrt(dx[0]*dx[0] + dx[1]*dx[1] + dx[2]*dx[2])
			if dist == 0 {
				continue
			}
			coeff := s.Ks * (dist - sp.rest) / dist
			out[0] += coeff * dx[0]
			out[1] += coeff * dx[1]
			out[2] += coeff * dx[2]
		}
		s.StretchForce[i] = out
	}
}

// ComputeElasticForce runs kernel 3 over nodes [lo, hi): the elastic force
// of each fiber node is the sum of its bending and stretching forces.
func (s *Sheet) ComputeElasticForce(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.Force[i] = Vec3{
			s.BendForce[i][0] + s.StretchForce[i][0],
			s.BendForce[i][1] + s.StretchForce[i][1],
			s.BendForce[i][2] + s.StretchForce[i][2],
		}
	}
}

// AreaElement returns the Lagrangian area weight Δq·Δr carried by each
// fiber node when its force is spread onto the fluid.
func (s *Sheet) AreaElement() float64 { return s.RestAlong * s.RestAcross }

// TotalForce sums the elastic force over all nodes. For a free sheet
// (nothing fixed) the energy-gradient construction makes this exactly zero
// up to rounding — an invariant the tests rely on.
func (s *Sheet) TotalForce() Vec3 {
	var t Vec3
	for _, f := range s.Force {
		t[0] += f[0]
		t[1] += f[1]
		t[2] += f[2]
	}
	return t
}

// FixRegion marks every node within radius r (in lattice units) of the
// sheet's geometric center as fixed, modelling Figure 1's plate fastened in
// the middle region.
func (s *Sheet) FixRegion(r float64) {
	var c Vec3
	for _, x := range s.X {
		c[0] += x[0]
		c[1] += x[1]
		c[2] += x[2]
	}
	n := float64(s.NumNodes())
	c[0] /= n
	c[1] /= n
	c[2] /= n
	r2 := r * r
	for i, x := range s.X {
		dx := [3]float64{x[0] - c[0], x[1] - c[1], x[2] - c[2]}
		if dx[0]*dx[0]+dx[1]*dx[1]+dx[2]*dx[2] <= r2 {
			s.Fixed[i] = true
		}
	}
}

// Clone returns a deep copy of the sheet for validation snapshots.
func (s *Sheet) Clone() *Sheet {
	c := *s
	c.X = append([]Vec3(nil), s.X...)
	c.Vel = append([]Vec3(nil), s.Vel...)
	c.BendForce = append([]Vec3(nil), s.BendForce...)
	c.StretchForce = append([]Vec3(nil), s.StretchForce...)
	c.Force = append([]Vec3(nil), s.Force...)
	c.Fixed = append([]bool(nil), s.Fixed...)
	return &c
}

// Centroid returns the mean node position, a convenient scalar diagnostic
// for tracking sheet motion in the examples and experiments.
func (s *Sheet) Centroid() Vec3 {
	var c Vec3
	for _, x := range s.X {
		c[0] += x[0]
		c[1] += x[1]
		c[2] += x[2]
	}
	n := float64(s.NumNodes())
	return Vec3{c[0] / n, c[1] / n, c[2] / n}
}

// ElasticEnergy returns the total discrete elastic energy (stretching +
// bending) of the current configuration. It is the quantity whose negative
// gradient the force kernels compute, so ΔE ≈ −F·ΔX for small
// displacements; the property tests verify that relation.
func (s *Sheet) ElasticEnergy() float64 {
	e := 0.0
	// Stretching: each axial neighbor pair counted once.
	for f := 0; f < s.NumFibers; f++ {
		for k := 0; k < s.NodesPerFiber; k++ {
			xi := s.X[s.Idx(f, k)]
			if k+1 < s.NodesPerFiber {
				e += springEnergy(s.Ks, xi, s.X[s.Idx(f, k+1)], s.RestAlong)
			}
			if f+1 < s.NumFibers {
				e += springEnergy(s.Ks, xi, s.X[s.Idx(f+1, k)], s.RestAcross)
			}
		}
	}
	// Bending: squared discrete curvature along both directions.
	for f := 0; f < s.NumFibers; f++ {
		for k := 0; k < s.NodesPerFiber; k++ {
			for _, dir := range [2][2]int{{0, 1}, {1, 0}} {
				c := s.curvature(f, k, dir[0], dir[1])
				if f-dir[0] < 0 || f+dir[0] >= s.NumFibers || k-dir[1] < 0 || k+dir[1] >= s.NodesPerFiber {
					continue
				}
				e += 0.5 * s.Kb * (c[0]*c[0] + c[1]*c[1] + c[2]*c[2])
			}
		}
	}
	return e
}

// TotalFibers returns the number of fibers across a set of sheets — the
// iteration space of the parallel solvers' fiber loops when the immersed
// structure is composed of several sheets.
func TotalFibers(sheets []*Sheet) int {
	n := 0
	for _, s := range sheets {
		n += s.NumFibers
	}
	return n
}

// Locate maps a global fiber index (over the concatenated sheets) to its
// sheet and local fiber index. It panics on an out-of-range index, which
// is a scheduling bug rather than a runtime condition.
func Locate(sheets []*Sheet, g int) (*Sheet, int) {
	for _, s := range sheets {
		if g < s.NumFibers {
			return s, g
		}
		g -= s.NumFibers
	}
	panic(fmt.Sprintf("fiber: global fiber index %d out of range", g))
}

func springEnergy(ks float64, a, b Vec3, rest float64) float64 {
	dx := Vec3{b[0] - a[0], b[1] - a[1], b[2] - a[2]}
	d := math.Sqrt(dx[0]*dx[0]+dx[1]*dx[1]+dx[2]*dx[2]) - rest
	return 0.5 * ks * d * d
}
