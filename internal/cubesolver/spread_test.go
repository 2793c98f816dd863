// Tests for owner-computes spreading (each thread into the box of cubes
// it owns), its bitwise equivalence to the sequential reference, and the
// thread-count clamp.
package cubesolver

import (
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
)

// spreadMatchesSequential runs kernels 1–4 once on the sequential
// reference and on a cube solver of the given width, both built around a
// fresh mkSheet(), and fails unless every node's force is bit for bit the
// reference's. It returns the cube solver's force field on a slab grid.
func spreadMatchesSequential(t *testing.T, mkSheet func() *fiber.Sheet, threads int) *grid.Grid {
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
// the sequential reference's kernel 4 at every thread count: each node
// receives its contributions in the reference's order (core.SpreadBox).
func TestLockFreeSpreadMatchesSequential(t *testing.T) {
	for _, threads := range []int{2, 3, 4, 8} {
		spreadMatchesSequential(t, testSheet, threads)
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
