package fiber

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func testSheet(nf, nk int) *Sheet {
	return NewSheet(Params{
		NumFibers:     nf,
		NodesPerFiber: nk,
		Width:         float64(nf - 1),
		Height:        float64(nk - 1),
		Origin:        Vec3{10, 5, 5},
		Ks:            0.5,
		Kb:            0.01,
	})
}

func computeAll(s *Sheet) {
	s.ComputeBendingForce(0, s.NumNodes())
	s.ComputeStretchingForce(0, s.NumNodes())
	s.ComputeElasticForce(0, s.NumNodes())
}

func perturb(s *Sheet, seed int64, amp float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range s.X {
		for d := 0; d < 3; d++ {
			s.X[i][d] += amp * (rng.Float64() - 0.5)
		}
	}
}

func TestNewSheetGeometry(t *testing.T) {
	s := testSheet(8, 5)
	if s.NumNodes() != 40 {
		t.Fatalf("NumNodes = %d, want 40", s.NumNodes())
	}
	if math.Abs(s.RestAcross-1) > 1e-15 || math.Abs(s.RestAlong-1) > 1e-15 {
		t.Fatalf("rest spacings = %g, %g, want 1, 1", s.RestAcross, s.RestAlong)
	}
	// Node (f, k) sits at origin + (0, f, k).
	x := s.X[s.Idx(3, 2)]
	if x != (Vec3{10, 8, 7}) {
		t.Fatalf("node (3,2) at %v, want {10 8 7}", x)
	}
}

func TestNewSheetPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSheet with 0 fibers did not panic")
		}
	}()
	NewSheet(Params{NumFibers: 0, NodesPerFiber: 5})
}

func TestIdxLayoutFiberContiguous(t *testing.T) {
	s := testSheet(4, 6)
	if s.Idx(0, 0) != 0 || s.Idx(0, 5) != 5 || s.Idx(1, 0) != 6 {
		t.Fatal("nodes of one fiber must be contiguous")
	}
}

func TestFlatRestSheetHasNoForce(t *testing.T) {
	s := testSheet(6, 6)
	computeAll(s)
	for i := 0; i < s.NumNodes(); i++ {
		for d := 0; d < 3; d++ {
			if math.Abs(s.Force[i][d]) > 1e-13 {
				t.Fatalf("node %d force %v on an undeformed sheet, want 0", i, s.Force[i])
			}
		}
	}
	if e := s.ElasticEnergy(); e != 0 {
		t.Fatalf("rest energy = %g, want 0", e)
	}
}

func TestUniformTranslationHasNoForce(t *testing.T) {
	s := testSheet(5, 7)
	for i := range s.X {
		s.X[i][0] += 2.5
		s.X[i][1] -= 1.0
		s.X[i][2] += 0.3
	}
	computeAll(s)
	for i := 0; i < s.NumNodes(); i++ {
		for d := 0; d < 3; d++ {
			if math.Abs(s.Force[i][d]) > 1e-12 {
				t.Fatalf("translation produced force %v at node %d", s.Force[i], i)
			}
		}
	}
}

// Rigid rotation preserves all distances and curvatures magnitudes, so the
// elastic energy must be unchanged and forces must stay zero from rest.
func TestRigidRotationHasNoForce(t *testing.T) {
	s := testSheet(5, 5)
	th := 0.7
	c, sn := math.Cos(th), math.Sin(th)
	for i := range s.X {
		y, z := s.X[i][1], s.X[i][2]
		s.X[i][1] = c*y - sn*z
		s.X[i][2] = sn*y + c*z
	}
	computeAll(s)
	for i := 0; i < s.NumNodes(); i++ {
		for d := 0; d < 3; d++ {
			if math.Abs(s.Force[i][d]) > 1e-11 {
				t.Fatalf("rotation produced force %v at node %d", s.Force[i], i)
			}
		}
	}
}

// The total elastic force on a free sheet is zero (Newton's third law /
// translation invariance of the energy), for any deformation.
func TestTotalForceZeroOnFreeSheet(t *testing.T) {
	s := testSheet(7, 9)
	perturb(s, 42, 0.3)
	computeAll(s)
	tot := s.TotalForce()
	for d := 0; d < 3; d++ {
		if math.Abs(tot[d]) > 1e-10 {
			t.Fatalf("total force[%d] = %g, want 0", d, tot[d])
		}
	}
}

func TestTotalForceZeroProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := testSheet(5, 6)
		perturb(s, seed, 0.5)
		computeAll(s)
		tot := s.TotalForce()
		return math.Abs(tot[0]) < 1e-9 && math.Abs(tot[1]) < 1e-9 && math.Abs(tot[2]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Forces must be the negative gradient of ElasticEnergy: perturbing one
// coordinate by h changes the energy by −F·h + O(h²).
func TestForceIsNegativeEnergyGradient(t *testing.T) {
	s := testSheet(6, 6)
	perturb(s, 7, 0.2)
	computeAll(s)
	h := 1e-6
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		i := rng.Intn(s.NumNodes())
		d := rng.Intn(3)
		e0 := s.ElasticEnergy()
		s.X[i][d] += h
		e1 := s.ElasticEnergy()
		s.X[i][d] -= h
		grad := (e1 - e0) / h
		force := s.Force[i][d]
		if math.Abs(grad+force) > 1e-4*(1+math.Abs(force)) {
			t.Fatalf("node %d dim %d: dE/dx = %g but force = %g (want force = −dE/dx)", i, d, grad, force)
		}
	}
}

func TestStretchingForceSimplePair(t *testing.T) {
	// Two-node fiber stretched along z by 0.5: each node feels Ks·0.5
	// pulling toward the other.
	s := NewSheet(Params{NumFibers: 1, NodesPerFiber: 2, Width: 0, Height: 1, Ks: 2, Kb: 0})
	s.X[1][2] += 0.5
	computeAll(s)
	if math.Abs(s.Force[0][2]-1.0) > 1e-12 {
		t.Fatalf("node 0 force z = %g, want 1.0", s.Force[0][2])
	}
	if math.Abs(s.Force[1][2]+1.0) > 1e-12 {
		t.Fatalf("node 1 force z = %g, want -1.0", s.Force[1][2])
	}
}

func TestStretchingCompressedPairPushesApart(t *testing.T) {
	s := NewSheet(Params{NumFibers: 1, NodesPerFiber: 2, Width: 0, Height: 1, Ks: 1, Kb: 0})
	s.X[1][2] -= 0.4 // compressed to length 0.6
	computeAll(s)
	if s.Force[0][2] >= 0 {
		t.Fatalf("node 0 force z = %g, want negative (pushed away)", s.Force[0][2])
	}
	if s.Force[1][2] <= 0 {
		t.Fatalf("node 1 force z = %g, want positive", s.Force[1][2])
	}
}

func TestBendingForceStraightFiberZero(t *testing.T) {
	// A straight but non-uniformly stretched fiber has zero curvature only
	// if spacing is uniform; test the uniform case.
	s := NewSheet(Params{NumFibers: 1, NodesPerFiber: 7, Width: 0, Height: 6, Ks: 0, Kb: 0.5})
	computeAll(s)
	for i := range s.Force {
		for d := 0; d < 3; d++ {
			if math.Abs(s.BendForce[i][d]) > 1e-13 {
				t.Fatalf("straight fiber bending force %v at node %d", s.BendForce[i], i)
			}
		}
	}
}

func TestBendingForceOpposesKink(t *testing.T) {
	// Kink the middle node of a single fiber in +x; bending force on that
	// node must push it back (−x) and the force field must sum to zero.
	s := NewSheet(Params{NumFibers: 1, NodesPerFiber: 5, Width: 0, Height: 4, Ks: 0, Kb: 1})
	mid := s.Idx(0, 2)
	s.X[mid][0] += 0.3
	computeAll(s)
	if s.Force[mid][0] >= 0 {
		t.Fatalf("bending force on kinked node = %g, want negative (restoring)", s.Force[mid][0])
	}
	tot := s.TotalForce()
	if math.Abs(tot[0]) > 1e-12 {
		t.Fatalf("bending total force = %g, want 0", tot[0])
	}
}

func TestBendingUsesEightNeighbors(t *testing.T) {
	// Moving a node three positions away along the fiber must not change
	// the bending force (dependence is limited to ±2 along each direction).
	s := testSheet(7, 9)
	perturb(s, 3, 0.1)
	s.ComputeBendingForce(0, s.NumNodes())
	ref := s.BendForce[s.Idx(3, 4)]
	s.X[s.Idx(3, 8)][1] += 5 // 4 nodes away along the same fiber
	s.ComputeBendingForce(0, s.NumNodes())
	if s.BendForce[s.Idx(3, 4)] != ref {
		t.Fatal("bending force depends on a node outside the 8-neighbor stencil")
	}
	// But moving a node two positions away must change it.
	s.X[s.Idx(3, 6)][1] += 0.5
	s.ComputeBendingForce(0, s.NumNodes())
	if s.BendForce[s.Idx(3, 4)] == ref {
		t.Fatal("bending force ignores a node inside the 8-neighbor stencil")
	}
}

func TestElasticForceIsSum(t *testing.T) {
	s := testSheet(5, 5)
	perturb(s, 11, 0.25)
	computeAll(s)
	for i := 0; i < s.NumNodes(); i++ {
		for d := 0; d < 3; d++ {
			want := s.BendForce[i][d] + s.StretchForce[i][d]
			if s.Force[i][d] != want {
				t.Fatalf("elastic force != bend + stretch at node %d", i)
			}
		}
	}
}

func TestRangedKernelsMatchFull(t *testing.T) {
	// Computing the kernels over split ranges must give identical results
	// to one full pass — the property the parallel solvers rely on.
	a := testSheet(6, 8)
	perturb(a, 5, 0.3)
	b := a.Clone()
	computeAll(a)
	n := b.NumNodes()
	b.ComputeBendingForce(0, 13)
	b.ComputeBendingForce(13, n)
	b.ComputeStretchingForce(0, 29)
	b.ComputeStretchingForce(29, n)
	b.ComputeElasticForce(0, 5)
	b.ComputeElasticForce(5, n)
	for i := 0; i < n; i++ {
		if a.Force[i] != b.Force[i] {
			t.Fatalf("ranged kernels diverge at node %d: %v vs %v", i, a.Force[i], b.Force[i])
		}
	}
}

// ComputeBendingForce's interior path (flat five-point differences, no
// bounds tests) equals BendingForceAt bit for bit — on sheets with a
// large interior, a single interior node (5×5), none (4×7, 1×9) — over
// arbitrary splits of the node range.
func TestComputeBendingForceMatchesBendingForceAtBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][2]int{{52, 52}, {51, 9}, {5, 5}, {4, 7}, {1, 9}, {7, 6}, {6, 5}} {
		s := testSheet(shape[0], shape[1])
		perturb(s, 3, 0.4)
		for i := range s.X {
			// Bent, so no difference vanishes — and on every other shape
			// scattered over six decades, so each difference rounds and
			// the order of the sums shows in the last bit.
			dy, dz := s.X[i][1]-9, s.X[i][2]-7
			s.X[i][0] += 0.002 * (dy*dy + dz*dz)
			if shape[0]%2 == 1 {
				for d := range s.X[i] {
					s.X[i][d] *= math.Exp(3 * rng.NormFloat64())
				}
			}
		}
		n := s.NumNodes()
		for trial := 0; trial < 20; trial++ {
			for i := range s.BendForce {
				s.BendForce[i] = Vec3{math.NaN(), math.NaN(), math.NaN()}
			}
			cuts := []int{0, n}
			if trial > 0 {
				for c := rng.Intn(6); c > 0; c-- {
					cuts = append(cuts, rng.Intn(n+1))
				}
				sort.Ints(cuts)
			}
			for c := 1; c < len(cuts); c++ {
				s.ComputeBendingForce(cuts[c-1], cuts[c])
			}
			for i := 0; i < n; i++ {
				want := s.BendingForceAt(i/s.NodesPerFiber, i%s.NodesPerFiber)
				for d := 0; d < 3; d++ {
					if math.Float64bits(s.BendForce[i][d]) != math.Float64bits(want[d]) {
						t.Fatalf("%dx%d sheet, cuts %v, node %d: %v, BendingForceAt %v", shape[0], shape[1], cuts, i, s.BendForce[i], want)
					}
				}
			}
		}
	}
}

// ComputeStretchingForce's interior path (the four springs at flat
// strides, no bounds tests) equals StretchingForceAt bit for bit — on
// sheets with a large interior (8×8), a single interior node (3×3), none
// (2×2, 1×9, 9×1) — with coincident neighbours (a spring of length
// exactly 0, which both skip) and over ranges that start and end
// mid-fiber.
func TestComputeStretchingForceMatchesStretchingForceAtBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{1, 9}, {9, 1}, {2, 2}, {3, 3}, {8, 8}} {
		s := testSheet(shape[0], shape[1])
		perturb(s, 4, 0.4)
		for i := range s.X {
			// Spread over six decades, so each spring's terms round and the
			// order of the sums shows in the last bit.
			for d := range s.X[i] {
				s.X[i][d] *= math.Exp(3 * rng.NormFloat64())
			}
		}
		n := s.NumNodes()
		// Coincident neighbours: a node on its right-hand neighbour, and —
		// where there is a next fiber — another on the node across.
		if n > 1 {
			c := n / 2
			if c+1 < n {
				s.X[c+1] = s.X[c]
			}
			if m := c + s.NodesPerFiber + 1; m < n {
				s.X[m] = s.X[c+1]
			}
		}
		for trial := 0; trial < 20; trial++ {
			for i := range s.StretchForce {
				s.StretchForce[i] = Vec3{math.NaN(), math.NaN(), math.NaN()}
			}
			cuts := []int{0, n}
			switch {
			case trial == 1 && n > 3: // one range inside the sheet, both ends mid-fiber
				cuts = []int{0, 1, n - 1, n}
			case trial > 1:
				for c := rng.Intn(6); c > 0; c-- {
					cuts = append(cuts, rng.Intn(n+1))
				}
				sort.Ints(cuts)
			}
			for c := 1; c < len(cuts); c++ {
				s.ComputeStretchingForce(cuts[c-1], cuts[c])
			}
			for i := 0; i < n; i++ {
				want := s.StretchingForceAt(i/s.NodesPerFiber, i%s.NodesPerFiber)
				for d := 0; d < 3; d++ {
					if math.Float64bits(s.StretchForce[i][d]) != math.Float64bits(want[d]) {
						t.Fatalf("%dx%d sheet, cuts %v, node %d: %v, StretchingForceAt %v", shape[0], shape[1], cuts, i, s.StretchForce[i], want)
					}
				}
			}
		}
	}
}

func TestFixRegionMarksCenter(t *testing.T) {
	s := testSheet(9, 9)
	s.FixRegion(1.5)
	center := s.Idx(4, 4)
	if !s.Fixed[center] {
		t.Fatal("center node not fixed")
	}
	if s.Fixed[s.Idx(0, 0)] {
		t.Fatal("corner node unexpectedly fixed")
	}
	count := 0
	for _, f := range s.Fixed {
		if f {
			count++
		}
	}
	if count == 0 || count == s.NumNodes() {
		t.Fatalf("FixRegion fixed %d of %d nodes, want a proper subset", count, s.NumNodes())
	}
}

func TestCloneIndependence(t *testing.T) {
	s := testSheet(4, 4)
	c := s.Clone()
	s.X[0][0] = 99
	s.Fixed[1] = true
	if c.X[0][0] == 99 || c.Fixed[1] {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCentroid(t *testing.T) {
	s := testSheet(3, 3)
	c := s.Centroid()
	want := Vec3{10, 6, 6} // origin {10,5,5} + half extents {0,1,1}
	for d := 0; d < 3; d++ {
		if math.Abs(c[d]-want[d]) > 1e-12 {
			t.Fatalf("centroid = %v, want %v", c, want)
		}
	}
}

func TestAreaElement(t *testing.T) {
	s := NewSheet(Params{NumFibers: 5, NodesPerFiber: 3, Width: 2, Height: 4, Ks: 1, Kb: 1})
	// RestAcross = 2/4 = 0.5, RestAlong = 4/2 = 2.
	if math.Abs(s.AreaElement()-1.0) > 1e-15 {
		t.Fatalf("AreaElement = %g, want 1.0", s.AreaElement())
	}
}

// Energy must decrease under gradient descent on node positions — a sanity
// check that the force really points downhill globally.
func TestGradientDescentReducesEnergy(t *testing.T) {
	s := testSheet(6, 6)
	perturb(s, 21, 0.4)
	e0 := s.ElasticEnergy()
	for iter := 0; iter < 50; iter++ {
		computeAll(s)
		for i := range s.X {
			for d := 0; d < 3; d++ {
				s.X[i][d] += 0.05 * s.Force[i][d]
			}
		}
	}
	e1 := s.ElasticEnergy()
	if e1 >= e0 {
		t.Fatalf("energy did not decrease under descent: %g -> %g", e0, e1)
	}
}

func BenchmarkBendingForce52x52(b *testing.B) {
	s := testSheet(52, 52)
	perturb(s, 1, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeBendingForce(0, s.NumNodes())
	}
}

func BenchmarkStretchingForce52x52(b *testing.B) {
	s := testSheet(52, 52)
	perturb(s, 1, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeStretchingForce(0, s.NumNodes())
	}
}
