// Tests for owner-computes spreading (each worker into the box it owns),
// its bitwise equivalence to the sequential reference, the thread-count
// clamps, and the regions of workers that own no fibers.
package engine

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
)

// spreadOnly runs kernels 1–4 once on the worker team through the
// schedule's own loops — the OpenMP schedule's four regions, the cube
// schedule's one team run with its after_spread barrier — and stops
// before collision, leaving the spread force field in place.
func spreadOnly(s *Solver) {
	if s.barrier == nil {
		for k, body := range []func(*fiber.Sheet, int, int){
			(*fiber.Sheet).ComputeBendingForce,
			(*fiber.Sheet).ComputeStretchingForce,
			(*fiber.Sheet).ComputeElasticForce,
		} {
			s.region(core.Kernel(k+1), func(tid int) { s.fiberLoop(tid, body) })
		}
		s.region(core.KSpreadForce, func(tid int) { s.spreadLoop(tid, 0) })
		return
	}
	s.Team.Run(func(tid int) {
		s.fiberLoop(tid, fiberForces)
		if s.spreadBarrierNeeded() {
			s.waitBarrier(core.SiteAfterSpread, tid, s.StepCount())
		}
		s.spreadLoop(tid, 0)
	})
}

// spreadMatchesSequential runs kernels 1–4 once on the sequential
// reference and on a cube solver of the given width, both built around a
// fresh mkSheet(), and fails unless every node's force is bit for bit the
// reference's. It returns the cube solver's force field on a slab grid.
func spreadMatchesSequential(t *testing.T, mkSheet func() *fiber.Sheet, threads int) *grid.Grid {
	t.Helper()
	ref := core.MustNewSolver(baseConfig(mkSheet()))
	ref.ComputeBendingForce()
	ref.ComputeStretchingForce()
	ref.ComputeElasticForce()
	ref.SpreadForce()

	s, err := NewCube(baseConfig(mkSheet()), 4, threads)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spreadOnly(s)
	g := toSlab(s.Live())
	for i := range ref.Fluid.Macros() {
		want, got := ref.Fluid.Macros()[i].Force, g.Macros()[i].Force
		if got != want {
			t.Fatalf("threads=%d: node %d force = %v, want %v", threads, i, got, want)
		}
	}
	return g
}

// The force field the owners' spread leaves on the grid is bit for bit
// the sequential reference's kernel 4 at every team width: each node
// receives its contributions in the reference's order (core.SpreadBox).
func TestLockFreeSpreadMatchesSequential(t *testing.T) {
	t.Run("omp", func(t *testing.T) {
		ref := core.MustNewSolver(baseConfig(testSheet()))
		ref.ComputeBendingForce()
		ref.ComputeStretchingForce()
		ref.ComputeElasticForce()
		ref.SpreadForce()
		for _, threads := range []int{2, 3, 4, 8} {
			s := mustOpenMP(baseConfig(testSheet()), threads)
			spreadOnly(s)
			spread := 0
			for i := range ref.Fluid.Macros() {
				want, got := ref.Fluid.Macros()[i].Force, s.Fluid.Macros()[i].Force
				if want != ref.BodyForce {
					spread++
				}
				if got != want {
					t.Fatalf("threads=%d: node %d force %v, sequential %v", threads, i, got, want)
				}
			}
			if spread == 0 {
				t.Fatal("the sheet spread no force; the comparison is vacuous")
			}
			s.Close()
		}
	})
	t.Run("cube", func(t *testing.T) {
		for _, threads := range []int{2, 3, 4, 8} {
			spreadMatchesSequential(t, testSheet, threads)
		}
	})
}

// wrapSheet places the sheet so every fiber node's 4-wide support window
// straddles the periodic x boundary: x ≈ 15.3 puts the window on planes
// {14, 15, 16→0, 17→1}, changing the owning cube (cx 3 → cx 0) mid-
// stencil. A flat sheet exerts no elastic force, so it is bowed in x with
// a deterministic perturbation — identical in every solver under
// comparison.
func wrapSheet() *fiber.Sheet {
	sh := fiber.NewSheet(fiber.Params{
		NumFibers: 8, NodesPerFiber: 8, Width: 7, Height: 7,
		Origin: fiber.Vec3{15.3, 4.3, 4.6}, Ks: 0.05, Kb: 0.001,
	})
	for i := range sh.X {
		sh.X[i][0] += 0.3 * math.Sin(float64(i))
	}
	return sh
}

// Periodic-wrap spreading: with the support window wrapping the domain
// edge, the owners' and the sequential spread produce the same force
// field bit for bit, and the wrapped planes must actually receive spread
// force (so the cross-owner wrap case is exercised, not vacuously
// passed).
func TestSpreadWrapEquivalence(t *testing.T) {
	g := spreadMatchesSequential(t, wrapSheet, 4)

	// The window must really have wrapped: the x=0 and x=1 planes sit on
	// the far side of the periodic boundary from the sheet and still
	// receive force beyond the uniform body force.
	body := baseConfig(nil).BodyForce
	for _, x := range []int{0, 1} {
		found := false
		for y := 0; y < 16 && !found; y++ {
			for z := 0; z < 16 && !found; z++ {
				f := g.Macros()[g.Idx(x, y, z)].Force
				if math.Abs(f[0]-body[0])+math.Abs(f[1]-body[1])+math.Abs(f[2]-body[2]) > 1e-9 {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("no spread force landed on wrapped plane x=%d", x)
		}
	}
}

// The OpenMP schedule parallelizes the fluid over x-planes, so a team
// wider than NX would idle workers in every region and skew the
// imbalance attribution. The count is clamped at construction and the
// clamped team must still step correctly.
func TestThreadsClampedToPlanes(t *testing.T) {
	s := mustOpenMP(baseConfig(nil), 64) // NX is 16
	defer s.Close()
	if s.Threads() != 16 {
		t.Fatalf("Threads = %d, want 16 (clamped to the x-plane count)", s.Threads())
	}
	s.Run(2)
}

// A worker team the cube mesh cannot feed must be cut down at
// construction, never run with idle workers skewing the imbalance
// attribution.
func TestThreadsClampedToOwnedCubes(t *testing.T) {
	// More workers than cubes: 8³ at k=4 has 8 cubes, so a request for 64
	// workers comes down to one worker per cube.
	s, err := NewCube(core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.7}, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.Threads() != 8 {
		t.Fatalf("Threads() = %d, want 8 (one per cube)", s.Threads())
	}
	for tid, c := range s.owned {
		if len(c) == 0 {
			t.Fatalf("thread %d owns no cubes after clamping", tid)
		}
	}
	s.Run(2) // the clamped team must actually step
	s.Close()

	// A mesh whose factors outrun an axis: 4×1×1 cubes cannot feed the
	// 2×2×1 mesh a 4-thread team builds (the second y coordinate owns
	// nothing), so the count drops to 3 — the largest team with no idle
	// worker.
	s, err = NewCube(core.Config{NX: 16, NY: 4, NZ: 4, Tau: 0.7}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Threads() != 3 {
		t.Fatalf("Threads() = %d, want 3 (4 cubes cannot feed a 2×2×1 mesh)", s.Threads())
	}
	for tid, c := range s.owned {
		if len(c) == 0 {
			t.Fatalf("thread %d owns no cubes after clamping", tid)
		}
	}
	s.Run(2)
}

// regionRecorder keeps a copy of every region's per-worker busy times.
type regionRecorder struct {
	mu   sync.Mutex
	busy map[core.Kernel][][]time.Duration
}

func (r *regionRecorder) Emit(e core.Event) {
	if e.Kind != core.RegionDone {
		return
	}
	r.mu.Lock()
	r.busy[e.Kernel] = append(r.busy[e.Kernel], slices.Clone(e.Busy))
	r.mu.Unlock()
}

// An OpenMP team wider than the sheet's fiber count leaves workers with
// no fibers, an empty chunk of every fiber kernel's static schedule. The
// run stays bitwise equal to Sequential — kernel 7's share of the support
// still reaches every worker — and every fiber region reports one busy
// time per worker: zero for a worker that owns no fibers, which skips the
// region's body, and a measured time for one that owns some.
func TestWorkersWithoutFibers(t *testing.T) {
	const threads, steps = 4, 6
	sheet := func() *fiber.Sheet {
		return fiber.NewSheet(fiber.Params{
			NumFibers: 2, NodesPerFiber: 8, Width: 7, Height: 7,
			Origin: fiber.Vec3{6, 4.3, 4.6}, Ks: 0.05, Kb: 0.001,
		})
	}
	ref := core.MustNewSolver(baseConfig(sheet()))
	ref.Run(steps)
	s := mustOpenMP(baseConfig(sheet()), threads)
	defer s.Close()
	rec := &regionRecorder{busy: map[core.Kernel][][]time.Duration{}}
	s.Probe = rec
	s.Run(steps)

	g := s.Live()
	for i := range ref.Fluid.Macros() {
		if values(ref.Fluid, i) != values(g, i) || ref.Fluid.Macros()[i].Vel != g.Macros()[i].Vel {
			t.Fatalf("node %d differs bitwise from sequential", i)
		}
	}
	for i := range ref.Sheet().X {
		if ref.Sheet().X[i] != s.Sheet().X[i] {
			t.Fatalf("fiber node %d position differs bitwise", i)
		}
	}
	for _, k := range []core.Kernel{core.KComputeBendingForce, core.KComputeStretchingForce, core.KComputeElasticForce, core.KMoveFibers} {
		if n := len(rec.busy[k]); n != steps {
			t.Fatalf("%v: %d regions, want %d", k, n, steps)
		}
		for _, busy := range rec.busy[k] {
			if len(busy) != threads {
				t.Fatalf("%v: busy has %d entries, want %d", k, len(busy), threads)
			}
			for tid, d := range busy {
				// StaticRange deals 2 fibers over 4 workers as 1, 1, 0, 0.
				if owns := tid < 2; owns != (d > 0) {
					t.Fatalf("%v: worker %d busy %v, owns fibers %v", k, tid, d, owns)
				}
			}
		}
	}
}
