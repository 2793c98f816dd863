package par

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewMeshExactFactorizations(t *testing.T) {
	cases := []struct {
		n       int
		p, q, r int
	}{
		{1, 1, 1, 1},
		{2, 2, 1, 1},
		{4, 2, 2, 1},
		{8, 2, 2, 2}, // the paper's Figure 6 example
		{16, 4, 2, 2},
		{32, 4, 4, 2},
		{64, 4, 4, 4},
		{12, 3, 2, 2},
		{7, 7, 1, 1}, // prime: degenerate mesh
	}
	for _, c := range cases {
		m := NewMesh(c.n)
		if m.P != c.p || m.Q != c.q || m.R != c.r {
			t.Fatalf("NewMesh(%d) = %+v, want %d×%d×%d", c.n, m, c.p, c.q, c.r)
		}
		if m.Size() != c.n {
			t.Fatalf("NewMesh(%d).Size() = %d", c.n, m.Size())
		}
	}
}

func TestMeshIDCoordRoundTrip(t *testing.T) {
	m := NewMesh(24)
	seen := make([]bool, 24)
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.Q; j++ {
			for k := 0; k < m.R; k++ {
				id := m.ID(i, j, k)
				if id < 0 || id >= 24 || seen[id] {
					t.Fatalf("ID(%d,%d,%d) = %d invalid or duplicate", i, j, k, id)
				}
				seen[id] = true
				gi, gj, gk := m.Coord(id)
				if gi != i || gj != j || gk != k {
					t.Fatalf("Coord(ID(%d,%d,%d)) = (%d,%d,%d)", i, j, k, gi, gj, gk)
				}
			}
		}
	}
}

func TestNewMeshPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMesh(0) did not panic")
		}
	}()
	NewMesh(0)
}

func TestCubeMapFigure6Example(t *testing.T) {
	// The paper's Figure 6: 2×2×2 cubes onto a 2×2×2 thread mesh with
	// block distribution — every thread owns exactly one cube.
	m := CubeMap{CX: 2, CY: 2, CZ: 2, Mesh: NewMesh(8)}
	counts := m.Counts()
	for tid, c := range counts {
		if c != 1 {
			t.Fatalf("thread %d owns %d cubes, want 1", tid, c)
		}
	}
}

func TestCubeMapValidOwners(t *testing.T) {
	f := func(cxr, cyr, czr, nr uint8) bool {
		cx, cy, cz := int(cxr)%6+1, int(cyr)%6+1, int(czr)%6+1
		n := int(nr)%16 + 1
		m := CubeMap{CX: cx, CY: cy, CZ: cz, Mesh: NewMesh(n)}
		for x := 0; x < cx; x++ {
			for y := 0; y < cy; y++ {
				for z := 0; z < cz; z++ {
					tid := m.CubeToThread(x, y, z)
					if tid < 0 || tid >= n {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCubeMapBlockIsContiguousPerAxis(t *testing.T) {
	// Under block distribution the owner index along an axis must be
	// non-decreasing in the cube coordinate.
	m := CubeMap{CX: 16, CY: 1, CZ: 1, Mesh: Mesh{P: 4, Q: 1, R: 1}}
	prev := -1
	for x := 0; x < 16; x++ {
		tid := m.CubeToThread(x, 0, 0)
		if tid < prev {
			t.Fatalf("block distribution not monotone at cube %d", x)
		}
		prev = tid
	}
	counts := m.Counts()
	for tid, c := range counts {
		if c != 4 {
			t.Fatalf("thread %d owns %d cubes, want 4", tid, c)
		}
	}
}

func TestCubeMapBalancedWhenDivisible(t *testing.T) {
	// 8×8×8 cubes on 64 threads (4×4×4): each thread owns exactly 8.
	m := CubeMap{CX: 8, CY: 8, CZ: 8, Mesh: NewMesh(64)}
	for tid, c := range m.Counts() {
		if c != 8 {
			t.Fatalf("thread %d owns %d cubes, want 8", tid, c)
		}
	}
}

func TestCubeMapCountsSumToNumCubes(t *testing.T) {
	m := CubeMap{CX: 5, CY: 7, CZ: 3, Mesh: NewMesh(6)}
	sum := 0
	for _, c := range m.Counts() {
		sum += c
	}
	if sum != m.NumCubes() {
		t.Fatalf("counts sum %d, want %d", sum, m.NumCubes())
	}
}

func TestFiberToThreadBlock(t *testing.T) {
	// 52 fibers over 4 threads: 13 each, contiguous.
	counts := make([]int, 4)
	prev := 0
	for i := 0; i < 52; i++ {
		tid := FiberToThread(i, 52, 4)
		if tid < prev {
			t.Fatalf("fiber block distribution not monotone at %d", i)
		}
		prev = tid
		counts[tid]++
	}
	for tid, c := range counts {
		if c != 13 {
			t.Fatalf("thread %d owns %d fibers, want 13", tid, c)
		}
	}
}

func TestFiberToThreadSingleThread(t *testing.T) {
	for i := 0; i < 10; i++ {
		if FiberToThread(i, 10, 1) != 0 {
			t.Fatal("single thread must own every fiber")
		}
	}
}

func TestFiberToThreadImbalanceBounded(t *testing.T) {
	// Block distribution: ownership counts differ by at most 1.
	f := func(nfR, ntR uint8) bool {
		nf := int(nfR)%120 + 1
		nt := int(ntR)%16 + 1
		if nt > nf {
			nt = nf
		}
		counts := make([]int, nt)
		for i := 0; i < nf; i++ {
			counts[FiberToThread(i, nf, nt)]++
		}
		min, max := nf, 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The boxes kernel 4's owners spread into partition the lattice exactly:
// every node lies in one thread's box. On the slab engines a box is the
// thread's static chunk of x-planes, at 1–8 threads (the engines clamp
// the team to NX). On the cube engine it is Box scaled by the cube edge,
// at 1–8 threads and k ∈ {2, 4, 8}, and it holds exactly the nodes of the
// cubes cube2thread gives the thread.
func TestOwnedBoxesPartitionLattice(t *testing.T) {
	type box struct{ lo, hi [3]int }
	check := func(name string, n [3]int, boxes []box, owner func(x, y, z int) int) {
		t.Helper()
		for x := 0; x < n[0]; x++ {
			for y := 0; y < n[1]; y++ {
				for z := 0; z < n[2]; z++ {
					in := []int{}
					for tid, b := range boxes {
						if b.lo[0] <= x && x < b.hi[0] && b.lo[1] <= y && y < b.hi[1] && b.lo[2] <= z && z < b.hi[2] {
							in = append(in, tid)
						}
					}
					if len(in) != 1 || (owner != nil && in[0] != owner(x, y, z)) {
						t.Fatalf("%s: node (%d, %d, %d) is in the boxes of threads %v", name, x, y, z, in)
					}
				}
			}
		}
	}
	for _, n := range [][3]int{{16, 8, 24}, {5, 3, 2}} {
		for threads := 1; threads <= min(8, n[0]); threads++ {
			boxes := make([]box, threads)
			for tid := range boxes {
				lo, hi := StaticRange(n[0], threads, tid)
				boxes[tid] = box{[3]int{lo, 0, 0}, [3]int{hi, n[1], n[2]}}
			}
			check(fmt.Sprintf("slabs %v/%dt", n, threads), n, boxes, nil)
		}
	}
	n := [3]int{16, 24, 8}
	for _, k := range []int{2, 4, 8} {
		for threads := 1; threads <= 8; threads++ {
			m := CubeMap{CX: n[0] / k, CY: n[1] / k, CZ: n[2] / k, Mesh: NewMesh(threads)}
			boxes := make([]box, threads)
			for tid := range boxes {
				lo, hi := m.Box(tid)
				for a := range lo {
					boxes[tid].lo[a], boxes[tid].hi[a] = lo[a]*k, hi[a]*k
				}
			}
			owner := func(x, y, z int) int { return m.CubeToThread(x/k, y/k, z/k) }
			check(fmt.Sprintf("cubes %v k=%d/%dt", n, k, threads), n, boxes, owner)
		}
	}
}
