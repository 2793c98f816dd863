package main

import (
	"sync"
	"time"
)

// The reference kernel is a frozen, self-contained D3Q19 BGK sweep that
// belongs to the benchmark, not to the library: nothing under test can
// change its speed. Bursts of it alternate with the timed chunks of a
// workload, on as many threads as the workload uses, so it sees the same
// minutes of the shared host — a slow neighbour slows both — and
// mlups_rel, the workload's rate over the reference's, cancels the host
// drift that the absolute mlups carries (README.md, "Why mlups_rel").
// It is written in the generic loop-over-directions form of an LBM code
// on an array-of-structs grid, so it is limited by the same mix of
// floating-point work and memory traffic as the kernels it stands beside.

const (
	refNX, refNY, refNZ = 32, 32, 16 // 5.4 MB per thread: beyond the L2
	refSweeps           = 8          // sweeps per burst, ≈ 40 ms
	refTau              = 0.7
)

var refE = [19][3]int{
	{0, 0, 0},
	{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
	{1, 1, 0}, {-1, -1, 0}, {1, -1, 0}, {-1, 1, 0},
	{1, 0, 1}, {-1, 0, -1}, {1, 0, -1}, {-1, 0, 1},
	{0, 1, 1}, {0, -1, -1}, {0, 1, -1}, {0, -1, 1},
}

var refW = [19]float64{
	1.0 / 3,
	1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
}

type refNode struct {
	f, next [19]float64
	rho     float64
	u       [3]float64
}

// refGrid is one thread's periodic box.
type refGrid struct{ nodes []refNode }

func refEquilibrium(rho float64, u [3]float64, out *[19]float64) {
	usq := u[0]*u[0] + u[1]*u[1] + u[2]*u[2]
	for i := range out {
		eu := float64(refE[i][0])*u[0] + float64(refE[i][1])*u[1] + float64(refE[i][2])*u[2]
		out[i] = refW[i] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*usq)
	}
}

// newRefGrid starts from a shear wave, so the sweep works on a flow that
// is neither at rest nor uniform.
func newRefGrid() *refGrid {
	g := &refGrid{nodes: make([]refNode, refNX*refNY*refNZ)}
	for x := 0; x < refNX; x++ {
		for y := 0; y < refNY; y++ {
			for z := 0; z < refNZ; z++ {
				n := &g.nodes[(x*refNY+y)*refNZ+z]
				n.rho = 1
				n.u = [3]float64{0.02 * float64(y%8-4) / 4, 0, 0.01 * float64(x%4-2) / 2}
				refEquilibrium(n.rho, n.u, &n.f)
			}
		}
	}
	return g
}

// sweep is one time step: collide every node, push-stream into the
// neighbours' next buffers with periodic wrap, then take the moments and
// make next the present buffer.
func (g *refGrid) sweep() {
	var eq [19]float64
	for i := range g.nodes {
		n := &g.nodes[i]
		refEquilibrium(n.rho, n.u, &eq)
		for q := range n.f {
			n.f[q] -= (n.f[q] - eq[q]) / refTau
		}
	}
	for x := 0; x < refNX; x++ {
		for y := 0; y < refNY; y++ {
			for z := 0; z < refNZ; z++ {
				n := &g.nodes[(x*refNY+y)*refNZ+z]
				for q := range n.f {
					tx := (x + refE[q][0] + refNX) % refNX
					ty := (y + refE[q][1] + refNY) % refNY
					tz := (z + refE[q][2] + refNZ) % refNZ
					g.nodes[(tx*refNY+ty)*refNZ+tz].next[q] = n.f[q]
				}
			}
		}
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		var rho, mx, my, mz float64
		for q, v := range n.next {
			rho += v
			mx += v * float64(refE[q][0])
			my += v * float64(refE[q][1])
			mz += v * float64(refE[q][2])
		}
		n.rho, n.u = rho, [3]float64{mx / rho, my / rho, mz / rho}
		n.f = n.next
	}
}

// mass sums the distributions; the sweep conserves it.
func (g *refGrid) mass() float64 {
	m := 0.0
	for i := range g.nodes {
		for _, v := range g.nodes[i].f {
			m += v
		}
	}
	return m
}

// reference is the set of per-thread boxes a workload's bursts run on.
type reference struct{ grids []*refGrid }

func newReference(threads int) *reference {
	r := &reference{}
	for t := 0; t < max(1, threads); t++ {
		r.grids = append(r.grids, newRefGrid())
	}
	r.burst() // touch every page and warm the caches
	return r
}

// burstUpdates is the number of node updates one burst performs.
func (r *reference) burstUpdates() float64 {
	return float64(len(r.grids)) * refNX * refNY * refNZ * refSweeps
}

// burst runs refSweeps sweeps on every box at once and returns the wall
// seconds taken. A single box is swept on the calling goroutine, so that
// the reference of a single-threaded workload runs on the thread — and
// most likely the core — the workload's steps ran on; several boxes get
// one goroutine each and are waited for.
func (r *reference) burst() float64 {
	t0 := time.Now()
	if len(r.grids) == 1 {
		for s := 0; s < refSweeps; s++ {
			r.grids[0].sweep()
		}
		return time.Since(t0).Seconds()
	}
	var wg sync.WaitGroup
	for _, g := range r.grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < refSweeps; s++ {
				g.sweep()
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
