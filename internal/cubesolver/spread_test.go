// Tests for the lock-free spreading path (per-thread accumulation +
// owner-partitioned reduction), its equivalence to the sequential
// reference, and the thread-count clamp.
package cubesolver

import (
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/validate"
)

// spreadMatchesSequential runs kernels 1–4 once on the sequential
// reference and on a cube solver of the given width, both built around a
// fresh mkSheet(), and fails unless every node's force agrees within tol.
// It returns the cube solver's force field on a slab grid.
func spreadMatchesSequential(t *testing.T, mkSheet func() *fiber.Sheet, threads int, tol float64) *grid.Grid {
	t.Helper()
	ref := core.MustNewSolver(refConfig(mkSheet()))
	ref.ComputeBendingForce()
	ref.ComputeStretchingForce()
	ref.ComputeElasticForce()
	ref.SpreadForce()

	s, err := NewSolver(cubeConfig(mkSheet(), threads, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.spreadOnly()
	g := s.Live().ToGrid()
	for i := range ref.Fluid.Macros() {
		want, got := ref.Fluid.Macros()[i].Force, g.Macros()[i].Force
		for d := 0; d < 3; d++ {
			if math.Abs(want[d]-got[d]) > tol {
				t.Fatalf("threads=%d: node %d force[%d] = %g, want %g (Δ=%g)",
					threads, i, d, got[d], want[d], got[d]-want[d])
			}
		}
	}
	return g
}

// The force field the lock-free spread leaves on the grid must match the
// sequential reference's kernel 4 at every thread count (the per-thread
// buffers and the owner reduction order the sums differently, so the
// match is tolerance-based, not bitwise).
func TestLockFreeSpreadMatchesSequential(t *testing.T) {
	for _, threads := range []int{2, 4, 8} {
		spreadMatchesSequential(t, testSheet, threads, validate.DefaultTol)
	}
}

// The determinism guarantee of the reduction scheme: at a fixed thread
// count, two identical multi-threaded lock-free runs are bitwise equal —
// owner-direct writes happen in each worker's fixed fiber order and the
// reduction folds buffers in ascending thread order, so the
// floating-point accumulation order never depends on scheduling.
func TestLockFreeDeterministicRunToRun(t *testing.T) {
	const steps = 8
	run := func() *Solver {
		s, err := NewSolver(cubeConfig(testSheet(), 4, 4))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(steps)
		return s
	}
	a, b := run(), run()
	defer a.Close()
	defer b.Close()
	ga, gb := a.Live().ToGrid(), b.Live().ToGrid()
	for i := range ga.Macros() {
		if ga.Dist()[i] != gb.Dist()[i] {
			t.Fatalf("node %d DF differs between identical 4-thread lock-free runs", i)
		}
	}
	for i := range a.Sheet().X {
		if a.Sheet().X[i] != b.Sheet().X[i] {
			t.Fatalf("fiber node %d position differs between identical runs", i)
		}
	}
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

// Satellite coverage for periodic-wrap spreading: with the support window
// wrapping the domain edge, the lock-free and sequential paths must
// produce the same force field, and the wrapped planes must actually
// receive spread force (so the cross-owner wrap case is exercised, not
// vacuously passed).
func TestSpreadWrapEquivalence(t *testing.T) {
	g := spreadMatchesSequential(t, wrapSheet, 4, 1e-13)

	// The window must really have wrapped: the x=0 and x=1 planes sit on
	// the far side of the periodic boundary from the sheet and still
	// receive force beyond the uniform body force.
	body := refConfig(nil).BodyForce
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

// Satellite coverage for the thread-count clamp: a worker team the cube
// mesh cannot feed must be cut down at construction, never run with idle
// workers skewing the imbalance attribution.
func TestThreadsClampedToOwnedCubes(t *testing.T) {
	// More workers than cubes: 8³ at k=4 has 8 cubes, so a request for 64
	// workers comes down to one worker per cube.
	s, err := NewSolver(Config{Config: core.Config{NX: 8, NY: 8, NZ: 8, Tau: 0.7}, CubeSize: 4, Threads: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s.Threads() != 8 {
		t.Fatalf("Threads() = %d, want 8 (one per cube)", s.Threads())
	}
	for tid, c := range s.Map.Counts() {
		if c == 0 {
			t.Fatalf("thread %d owns no cubes after clamping", tid)
		}
	}
	s.Run(2) // the clamped team must actually step
	s.Close()

	// A mesh whose factors outrun an axis: 4×1×1 cubes cannot feed the
	// 2×2×1 mesh a 4-thread team builds (the second y coordinate owns
	// nothing), so the count drops to 3 — the largest team with no idle
	// worker.
	s, err = NewSolver(Config{Config: core.Config{NX: 16, NY: 4, NZ: 4, Tau: 0.7}, CubeSize: 4, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Threads() != 3 {
		t.Fatalf("Threads() = %d, want 3 (4 cubes cannot feed a 2×2×1 mesh)", s.Threads())
	}
	for tid, c := range s.Map.Counts() {
		if c == 0 {
			t.Fatalf("thread %d owns no cubes after clamping", tid)
		}
	}
	s.Run(2)
}
