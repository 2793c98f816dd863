package engine

import (
	"sync"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
)

// fluidOnlyRefConfig is a structure-free moving-lid cavity: nontrivial
// dynamics (boundary bounce-back plus a body force) with no fibers, the
// regime in which the end-of-step barrier folds.
func fluidOnlyRefConfig() core.Config {
	return core.Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce:   [3]float64{3e-5, 0, 0},
		BCZ:         core.BounceBack,
		LidVelocity: [3]float64{0.05, 0, 0},
	}
}

// TestFoldedEndBarrierBitwiseEqualsSequential is the fold's correctness
// contract: a fluid-only run — where the end-of-step barrier is folded
// away — must stay bitwise equal to the sequential reference at every
// thread count. Parallel fluid-only execution reorders no floating-point
// accumulation, so equality is exact, not tolerance-based. The reference
// runs kernel 9 as the published per-node copy, so the same comparison
// proves the in-place stream arithmetically invisible at both phases of
// the array (even step count: natural, odd: swapped, then canonicalized).
func TestFoldedEndBarrierBitwiseEqualsSequential(t *testing.T) {
	for _, steps := range []int{10, 11} {
		ref := core.MustNewSolver(fluidOnlyRefConfig())
		ref.Run(steps)

		for _, threads := range []int{1, 2, 4, 8} {
			s, err := NewCube(fluidOnlyRefConfig(), 4, threads)
			if err != nil {
				t.Fatal(err)
			}
			if threads > 1 && s.spreadBarrierNeeded() {
				t.Fatalf("threads=%d: end barrier not folded on a fluid-only run", threads)
			}
			s.Run(steps)
			if want := steps%2 == 1; s.Swapped() != want {
				t.Fatalf("steps=%d: array swapped = %v, want %v", steps, s.Swapped(), want)
			}
			g := toSlab(s.Live())
			for i := range ref.Fluid.Macros() {
				if values(ref.Fluid, i) != values(g, i) {
					t.Fatalf("steps=%d threads=%d: node %d DF differs bitwise with the folded barrier", steps, threads, i)
				}
				if ref.Fluid.Macros()[i].Vel != g.Macros()[i].Vel {
					t.Fatalf("steps=%d threads=%d: node %d velocity differs bitwise with the folded barrier", steps, threads, i)
				}
			}
			s.Close()
		}
	}
}

// TestEndBarrierFoldConditions pins exactly when the barrier folds: a
// fluid-only multi-worker run folds it, fibers restore it, and a single
// worker never needs it.
func TestEndBarrierFoldConditions(t *testing.T) {
	mk := func(sheet *fiber.Sheet, threads int) *Solver {
		cfg := fluidOnlyRefConfig()
		cfg.Sheet = sheet
		s, err := NewCube(cfg, 4, threads)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	if s := mk(nil, 4); s.spreadBarrierNeeded() {
		t.Error("fluid-only run: end barrier should fold")
	}
	if s := mk(testSheet(), 4); !s.spreadBarrierNeeded() {
		t.Error("run with fibers: end barrier is required (sheet X write→read across fibers)")
	}
	if s := mk(nil, 1); s.spreadBarrierNeeded() {
		t.Error("single-worker run: barrier orders nothing")
	}
}

// countingContention tallies barrier-arrival events per site.
type countingContention struct {
	mu    sync.Mutex
	waits map[core.BarrierSite]int
}

func (c *countingContention) Emit(e core.Event) {
	if e.Kind != core.BarrierArrive {
		return
	}
	site := e.Site
	c.mu.Lock()
	if c.waits == nil {
		c.waits = make(map[core.BarrierSite]int)
	}
	c.waits[site]++
	c.mu.Unlock()
}

// TestFoldedEndBarrierEmitsNoCrossings proves the folds are real: with
// the probe attached, a fluid-only run records zero end-of-step,
// after-spread and after-velocity crossings — its support is empty, so
// the moments loop between after_stream and after_velocity does nothing
// (core.Support) — while the one required site, after_stream, fires once
// per step per thread.
func TestFoldedEndBarrierEmitsNoCrossings(t *testing.T) {
	const steps, threads = 5, 4
	s, err := NewCube(fluidOnlyRefConfig(), 4, threads)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	obs := &countingContention{}
	s.Probe = obs
	s.Run(steps)

	if n := obs.waits[core.SiteEndOfStep]; n != 0 {
		t.Errorf("end_of_step crossings = %d on a fluid-only run, want 0 (folded)", n)
	}
	if n := obs.waits[core.SiteAfterSpread]; n != 0 {
		t.Errorf("after_spread crossings = %d on a fluid-only run, want 0 (folded)", n)
	}
	if n := obs.waits[core.SiteAfterVelocity]; n != 0 {
		t.Errorf("after_velocity crossings = %d on a fluid-only run, want 0 (folded)", n)
	}
	if n := obs.waits[core.SiteAfterStream]; n != steps*threads {
		t.Errorf("after_stream crossings = %d, want %d", n, steps*threads)
	}
}
