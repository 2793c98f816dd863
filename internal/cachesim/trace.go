package cachesim

import (
	"fmt"
	"unsafe"

	"lbmib/internal/grid"
	"lbmib/internal/ibm"
	"lbmib/internal/lattice"
	"lbmib/internal/par"
)

// Exact byte layout of the paper's fluid node record (see the package
// doc), taken from the real type.
var (
	nodeSize = uint64(unsafe.Sizeof(grid.Node{}))
	offDF    = uint64(unsafe.Offsetof(grid.Node{}.DF))
	offDFNew = uint64(unsafe.Offsetof(grid.Node{}.DFNew))
	offVel   = uint64(unsafe.Offsetof(grid.Node{}.Vel))
	offRho   = uint64(unsafe.Offsetof(grid.Node{}.Rho))
	offForce = uint64(unsafe.Offsetof(grid.Node{}.Force))
)

// NodeBytes returns the size of one fluid node record; exposed for the
// performance model's bandwidth accounting.
func NodeBytes() uint64 { return nodeSize }

// Workload describes one LBM-IB fluid problem for trace generation.
// CubeSize 0 selects the slab (x-major) layout with static x-slab
// scheduling (the OpenMP-style solver); a positive CubeSize selects the
// cube-major layout with block cube2thread distribution (the cube-based
// solver).
type Workload struct {
	NX, NY, NZ int
	CubeSize   int
	Threads    int

	// FiberRows × FiberCols fiber nodes form a sheet centered in the
	// domain; zero disables the structure kernels in the trace.
	FiberRows, FiberCols int

	// Base is the simulated base address of the fluid node array. The
	// fiber arrays are placed after it.
	Base uint64
}

// flatIdx returns the node's index in the selected layout.
func (w *Workload) flatIdx(x, y, z int) uint64 {
	if w.CubeSize <= 0 {
		return uint64((x*w.NY+y)*w.NZ + z)
	}
	k := w.CubeSize
	cx, cy, cz := x/k, y/k, z/k
	lx, ly, lz := x%k, y%k, z%k
	cy3 := w.NY / k
	cz3 := w.NZ / k
	cubeIdx := (cx*cy3+cy)*cz3 + cz
	return uint64(cubeIdx*k*k*k + (lx*k+ly)*k + lz)
}

func (w *Workload) nodeAddr(x, y, z int) uint64 {
	return w.Base + w.flatIdx(x, y, z)*nodeSize
}

func wrapc(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// block is a contiguous batch of nodes one thread processes before the
// lockstep replay rotates to the next thread: one z-column for the slab
// layout, one whole cube for the cube layout. Batching at the solver's
// natural work unit is what lets the replay observe each layout's real
// reuse pattern.
type block struct {
	coords [][3]int32
}

// blocks returns, for each thread, the ordered work units of one fluid
// sweep: z-columns of its static x-slab (slab layout) or its owned cubes
// (cube layout, block cube2thread distribution).
func (w *Workload) blocks() [][]block {
	out := make([][]block, w.Threads)
	if w.CubeSize <= 0 {
		for tid := 0; tid < w.Threads; tid++ {
			lo, hi := par.StaticRange(w.NX, w.Threads, tid)
			for x := lo; x < hi; x++ {
				for y := 0; y < w.NY; y++ {
					b := block{coords: make([][3]int32, 0, w.NZ)}
					for z := 0; z < w.NZ; z++ {
						b.coords = append(b.coords, [3]int32{int32(x), int32(y), int32(z)})
					}
					out[tid] = append(out[tid], b)
				}
			}
		}
		return out
	}
	k := w.CubeSize
	cm := par.CubeMap{CX: w.NX / k, CY: w.NY / k, CZ: w.NZ / k, Mesh: par.NewMesh(w.Threads)}
	for cx := 0; cx < cm.CX; cx++ {
		for cy := 0; cy < cm.CY; cy++ {
			for cz := 0; cz < cm.CZ; cz++ {
				tid := cm.CubeToThread(cx, cy, cz)
				b := block{coords: make([][3]int32, 0, k*k*k)}
				for lx := 0; lx < k; lx++ {
					for ly := 0; ly < k; ly++ {
						for lz := 0; lz < k; lz++ {
							b.coords = append(b.coords,
								[3]int32{int32(cx*k + lx), int32(cy*k + ly), int32(cz*k + lz)})
						}
					}
				}
				out[tid] = append(out[tid], b)
			}
		}
	}
	return out
}

// perNode emits the access pattern of one kernel at one node.
type perNode func(core int, x, y, z int, h *Hierarchy)

// interleave replays the per-thread block lists round-robin — a lockstep
// model of threads progressing together through a parallel region. Each
// call of fns on a block runs the given kernels back to back over the
// block's nodes, which is how the cube solver fuses collision and
// streaming over one cube (Algorithm 4's 2nd loop).
func (w *Workload) interleave(h *Hierarchy, blocks [][]block, fns ...perNode) {
	max := 0
	for _, s := range blocks {
		if len(s) > max {
			max = len(s)
		}
	}
	for r := 0; r < max; r++ {
		for tid, s := range blocks {
			if r >= len(s) {
				continue
			}
			for _, fn := range fns {
				for _, c := range s[r].coords {
					fn(tid, int(c[0]), int(c[1]), int(c[2]), h)
				}
			}
		}
	}
}

// collisionNode mirrors compute_fluid_collision at the source level: the
// direction loop re-reads ρ, u and f from the node record on every
// iteration (the compiled AoS code reloads through the node pointer), then
// reads and writes the distribution entry. The re-reads matter for the L1
// hit rate PAPI would observe.
func (w *Workload) collisionNode(core, x, y, z int, h *Hierarchy) {
	a := w.nodeAddr(x, y, z)
	// Each core computes the equilibrium and forcing arrays (geq[19],
	// F[19]) in per-thread scratch storage; that stack traffic always hits
	// L1 and is part of what a hardware counter sees.
	stack := uint64(1)<<40 + uint64(core)*4096
	for i := uint64(0); i < lattice.Q; i++ {
		h.Access(core, a+offRho, false)
		for d := uint64(0); d < 3; d++ {
			h.Access(core, a+offVel+8*d, false)
			h.Access(core, a+offForce+8*d, false)
		}
		h.Access(core, stack+8*i, true)      // geq[i] =
		h.Access(core, stack+152+8*i, true)  // F[i] =
		h.Access(core, stack+8*i, false)     // ... used in relaxation
		h.Access(core, stack+152+8*i, false) // ... used in forcing
		h.Access(core, a+offDF+8*i, false)
		h.Access(core, a+offDF+8*i, true)
	}
}

// streamNode mirrors stream_fluid_velocity_distribution: read each DF
// entry and write it into the neighbor's DFNew.
func (w *Workload) streamNode(core, x, y, z int, h *Hierarchy) {
	a := w.nodeAddr(x, y, z)
	for i := 0; i < lattice.Q; i++ {
		h.Access(core, a+offDF+8*uint64(i), false)
		tx := wrapc(x+lattice.E[i][0], w.NX)
		ty := wrapc(y+lattice.E[i][1], w.NY)
		tz := wrapc(z+lattice.E[i][2], w.NZ)
		h.Access(core, w.nodeAddr(tx, ty, tz)+offDFNew+8*uint64(i), true)
	}
}

// updateNode mirrors update_fluid_velocity: read the 19 DFNew entries and
// the force, write velocity and density.
func (w *Workload) updateNode(core, x, y, z int, h *Hierarchy) {
	a := w.nodeAddr(x, y, z)
	for i := uint64(0); i < lattice.Q; i++ {
		h.Access(core, a+offDFNew+8*i, false)
	}
	for d := uint64(0); d < 3; d++ {
		h.Access(core, a+offForce+8*d, false)
		h.Access(core, a+offVel+8*d, true)
	}
	h.Access(core, a+offRho, true)
}

// copyNode mirrors copy_fluid_velocity_distribution.
func (w *Workload) copyNode(core, x, y, z int, h *Hierarchy) {
	a := w.nodeAddr(x, y, z)
	for i := uint64(0); i < lattice.Q; i++ {
		h.Access(core, a+offDFNew+8*i, false)
		h.Access(core, a+offDF+8*i, true)
	}
}

// fiberBase returns the simulated address of the fiber arrays (placed
// after the fluid grid).
func (w *Workload) fiberBase() uint64 {
	return w.Base + uint64(w.NX*w.NY*w.NZ)*nodeSize
}

// replayFiberCoupling emits the spread (kernel 4) and interpolate
// (kernel 8) traffic of the fiber sheet: per fiber node, the fiber record
// plus the Force (spread) or Vel (interpolate) words of the 4×4×4
// influential domain in the fluid grid.
func (w *Workload) replayFiberCoupling(h *Hierarchy, spread bool) {
	if w.FiberRows == 0 || w.FiberCols == 0 {
		return
	}
	fx := float64(w.NX) / 2
	y0 := float64(w.NY)/2 - float64(w.FiberRows)/2
	z0 := float64(w.NZ)/2 - float64(w.FiberCols)/2
	fb := w.fiberBase()
	const fiberRec = 6 * 8 // position + force/velocity vectors
	for f := 0; f < w.FiberRows; f++ {
		core := par.FiberToThread(f, w.FiberRows, w.Threads)
		for c := 0; c < w.FiberCols; c++ {
			i := f*w.FiberCols + c
			rec := fb + uint64(i)*fiberRec
			for wd := uint64(0); wd < 6; wd++ {
				h.Access(core, rec+8*wd, !spread && wd >= 3)
			}
			// Influential domain: 4×4×4 fluid nodes around the node's
			// position (offset by 0.3 to stay off lattice points).
			px, py, pz := fx, y0+float64(f)+0.3, z0+float64(c)+0.3
			bx, by, bz := int(px)-1, int(py)-1, int(pz)-1
			for dx := 0; dx < ibm.SupportWidth; dx++ {
				for dy := 0; dy < ibm.SupportWidth; dy++ {
					for dz := 0; dz < ibm.SupportWidth; dz++ {
						a := w.nodeAddr(wrapc(bx+dx, w.NX), wrapc(by+dy, w.NY), wrapc(bz+dz, w.NZ))
						if spread {
							for d := uint64(0); d < 3; d++ {
								h.Access(core, a+offForce+8*d, false)
								h.Access(core, a+offForce+8*d, true)
							}
						} else {
							for d := uint64(0); d < 3; d++ {
								h.Access(core, a+offVel+8*d, false)
							}
						}
					}
				}
			}
		}
	}
}

// ReplayStep replays one full LBM-IB time step's data accesses through the
// hierarchy in each solver's real loop structure: the slab (OpenMP-style)
// solver runs collision and streaming as separate full sweeps separated by
// an implicit barrier, while the cube solver fuses them over each owned
// cube (Algorithm 4's 2nd loop) — the fusion is the locality the paper's
// data-centric design exists to exploit.
func (w *Workload) ReplayStep(h *Hierarchy) error {
	if err := w.validate(); err != nil {
		return err
	}
	blocks := w.blocks()
	w.replayFiberCoupling(h, true)
	if w.CubeSize > 0 {
		w.interleave(h, blocks, w.collisionNode, w.streamNode)
	} else {
		w.interleave(h, blocks, w.collisionNode)
		w.interleave(h, blocks, w.streamNode)
	}
	w.interleave(h, blocks, w.updateNode)
	w.replayFiberCoupling(h, false)
	w.interleave(h, blocks, w.copyNode)
	return nil
}

func (w *Workload) validate() error {
	if w.NX < 1 || w.NY < 1 || w.NZ < 1 {
		return fmt.Errorf("cachesim: bad workload dims %d×%d×%d", w.NX, w.NY, w.NZ)
	}
	if w.Threads < 1 {
		return fmt.Errorf("cachesim: %d threads", w.Threads)
	}
	if w.CubeSize > 0 && (w.NX%w.CubeSize != 0 || w.NY%w.CubeSize != 0 || w.NZ%w.CubeSize != 0) {
		return fmt.Errorf("cachesim: dims %d×%d×%d not divisible by cube %d", w.NX, w.NY, w.NZ, w.CubeSize)
	}
	return nil
}
