// Tests for the loop-parallel engine's spreading (each thread into the
// x-slab it owns) and the thread-count clamp against the x-plane loop.
package omp

import (
	"testing"

	"lbmib/internal/core"
)

// The force field the owners' spread leaves on the grid is bit for bit
// the sequential reference's kernel 4 at every team width: each node
// receives its contributions in the reference's order (core.SpreadBox).
func TestLockFreeSpreadMatchesSequential(t *testing.T) {
	ref := core.MustNewSolver(baseConfig(testSheet()))
	ref.ComputeBendingForce()
	ref.ComputeStretchingForce()
	ref.ComputeElasticForce()
	ref.SpreadForce()
	for _, threads := range []int{2, 3, 4, 8} {
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
			if got != want {
				t.Fatalf("threads=%d: node %d force %v, sequential %v", threads, i, got, want)
			}
		}
		if spread == 0 {
			t.Fatal("the sheet spread no force; the comparison is vacuous")
		}
		s.Close()
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
	if s.Threads() != 16 {
		t.Fatalf("Threads = %d, want 16 (clamped to the x-plane count)", s.Threads())
	}
	s.Run(2)
}
