// Tests for the loop-parallel engine's lock-free spreading (per-thread
// plane accumulation + reduction) and the thread-count clamp against the
// x-plane loop.
package omp

import (
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/validate"
)

// The force field the lock-free spread leaves on the grid must match the
// sequential reference's kernel 4 at every team width (the per-thread
// buffers and the reduction order the sums differently, so the match is
// tolerance-based, not bitwise).
func TestLockFreeSpreadMatchesSequential(t *testing.T) {
	ref := core.MustNewSolver(baseConfig(testSheet()))
	ref.ComputeBendingForce()
	ref.ComputeStretchingForce()
	ref.ComputeElasticForce()
	ref.SpreadForce()
	for _, threads := range []int{2, 4, 8} {
		s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: threads})
		s.ComputeBendingForce()
		s.ComputeStretchingForce()
		s.ComputeElasticForce()
		s.SpreadForce()
		spread := 0
		for i := range ref.Fluid.Macros() {
			want, got := ref.Fluid.Macros()[i].Force, s.Fluid.Macros()[i].Force
			if want != ref.BodyForce {
				spread++
			}
			for d := 0; d < 3; d++ {
				if math.Abs(want[d]-got[d]) > validate.DefaultTol {
					t.Fatalf("threads=%d: node %d force %v, sequential %v", threads, i, got, want)
				}
			}
		}
		if spread == 0 {
			t.Fatal("the sheet spread no force; the comparison is vacuous")
		}
		s.Close()
	}
}

// The schedule is static, so each thread's plane range is fixed and the
// reduction folds buffers in ascending thread order, so two identical
// multi-threaded lock-free runs must be bitwise equal.
func TestLockFreeDeterministicRunToRun(t *testing.T) {
	const steps = 8
	run := func() *Solver {
		s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: 4})
		s.Run(steps)
		return s
	}
	a, b := run(), run()
	defer a.Close()
	defer b.Close()
	for i := range a.Fluid.Macros() {
		if a.Live().Dist()[i] != b.Live().Dist()[i] {
			t.Fatalf("node %d DF differs between identical 4-thread lock-free runs", i)
		}
	}
	for i := range a.Sheet().X {
		if a.Sheet().X[i] != b.Sheet().X[i] {
			t.Fatalf("fiber node %d position differs between identical runs", i)
		}
	}
}

// Satellite coverage for the thread-count clamp: the engine parallelizes
// over x-planes, so a team wider than NX would idle workers in every
// region and skew the imbalance attribution. The count is clamped at
// construction and the clamped team must still step correctly.
func TestThreadsClampedToPlanes(t *testing.T) {
	s := MustNewSolver(Config{
		Config:  baseConfig(nil),
		Threads: 64, // NX is 16
	})
	defer s.Close()
	if s.Threads != 16 {
		t.Fatalf("Threads = %d, want 16 (clamped to the x-plane count)", s.Threads)
	}
	s.Run(2)
}
