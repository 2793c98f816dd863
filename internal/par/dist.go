package par

import "fmt"

// Mesh is the logical 3D arrangement of threads from Section V-A: n
// threads laid out as a P×Q×R grid so that cubes can be mapped to threads
// with spatial locality. Thread (i, j, k) has id (i·Q + j)·R + k.
type Mesh struct {
	P, Q, R int
}

// NewMesh factorizes n into the most balanced P ≥ Q ≥ R triple (the
// factorization minimizing P+Q+R, i.e. the most cube-like mesh), matching
// the paper's example of mapping 8 threads as 2×2×2.
func NewMesh(n int) Mesh {
	if n < 1 {
		panic(fmt.Sprintf("par: mesh size %d", n))
	}
	best := Mesh{n, 1, 1}
	bestSum := n + 2
	for p := 1; p <= n; p++ {
		if n%p != 0 {
			continue
		}
		np := n / p
		for q := 1; q <= np; q++ {
			if np%q != 0 {
				continue
			}
			r := np / q
			if p < q || q < r {
				continue
			}
			if p+q+r < bestSum {
				bestSum = p + q + r
				best = Mesh{p, q, r}
			}
		}
	}
	return best
}

// Size returns the number of threads in the mesh.
func (m Mesh) Size() int { return m.P * m.Q * m.R }

// ID returns the thread id of mesh coordinate (i, j, k).
func (m Mesh) ID(i, j, k int) int { return (i*m.Q+j)*m.R + k }

// Coord returns the mesh coordinate of thread id.
func (m Mesh) Coord(id int) (i, j, k int) {
	k = id % m.R
	j = (id / m.R) % m.Q
	i = id / (m.R * m.Q)
	return
}

// axisMap maps index c of nc cells onto np positions as balanced
// contiguous spans — the block distribution of Section V-A and the
// paper's Figure 6 example.
func axisMap(c, nc, np int) int {
	if np == 1 {
		return 0
	}
	return c * np / nc
}

// CubeMap is the user-defined data-distribution function of Section V-A:
// it maps cube coordinates to owner thread ids over a thread mesh. CX, CY,
// CZ are the cube-grid dimensions (fluid dims divided by cube size k).
type CubeMap struct {
	CX, CY, CZ int
	Mesh       Mesh
}

// CubeToThread implements int cube2thread(cube_x, cube_y, cube_z): the
// owner thread id of the cube at (cx, cy, cz).
func (m CubeMap) CubeToThread(cx, cy, cz int) int {
	i := axisMap(cx, m.CX, m.Mesh.P)
	j := axisMap(cy, m.CY, m.Mesh.Q)
	k := axisMap(cz, m.CZ, m.Mesh.R)
	return m.Mesh.ID(i, j, k)
}

// NumCubes returns the total cube count.
func (m CubeMap) NumCubes() int { return m.CX * m.CY * m.CZ }

// Counts returns how many cubes each thread owns — the load-balance
// footprint of the distribution.
func (m CubeMap) Counts() []int {
	counts := make([]int, m.Mesh.Size())
	for cx := 0; cx < m.CX; cx++ {
		for cy := 0; cy < m.CY; cy++ {
			for cz := 0; cz < m.CZ; cz++ {
				counts[m.CubeToThread(cx, cy, cz)]++
			}
		}
	}
	return counts
}

// FiberToThread implements int fiber2thread(fiber_i): the owner thread of
// fiber i out of nfibers, block-distributed over nthreads.
func FiberToThread(i, nfibers, nthreads int) int {
	if nthreads <= 1 {
		return 0
	}
	return axisMap(i, nfibers, nthreads)
}
