// Package tune implements the paper's third future-work item (Section
// VIII): auto-tuning of the cube-based solver's configuration. The cube
// edge k trades cache locality against cross-cube streaming surface and
// the right value depends on the host's cache hierarchy, so Tune runs
// short timed trials of the real solver over a candidate set and picks
// the fastest — the empirical-search approach of Williams et al. that the
// paper's related-work section points at.
package tune

import (
	"fmt"
	"sort"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/fiber"
)

// Candidates returns the cube sizes that evenly divide all three grid
// dimensions, in increasing order (excluding 1, which degenerates to a
// node-per-cube layout, and anything above the smallest dimension).
func Candidates(nx, ny, nz int) []int {
	min := nx
	if ny < min {
		min = ny
	}
	if nz < min {
		min = nz
	}
	var out []int
	for k := 2; k <= min; k++ {
		if nx%k == 0 && ny%k == 0 && nz%k == 0 {
			out = append(out, k)
		}
	}
	return out
}

// Trial is one measured configuration.
type Trial struct {
	CubeSize int
	PerStep  time.Duration
}

// Result is a completed tuning run.
type Result struct {
	Best   Trial
	Trials []Trial // sorted by PerStep, fastest first
}

// Options configures Tune.
type Options struct {
	NX, NY, NZ int
	Threads    int
	Tau        float64
	BodyForce  [3]float64
	// SheetSpec builds a fresh sheet per trial (trials mutate it); nil
	// tunes a fluid-only problem.
	SheetSpec func() *fiber.Sheet
	// StepsPerTrial is the number of timed steps per candidate (default
	// 5) after one warm-up step.
	StepsPerTrial int
	// Repetitions takes the fastest of this many measurements per
	// candidate to filter scheduler noise (default 3).
	Repetitions int
	// Candidates overrides the candidate set (default Candidates()).
	Candidates []int
}

// Tune measures every candidate cube size on the real cube solver and
// returns the fastest.
func Tune(opt Options) (Result, error) {
	if opt.StepsPerTrial <= 0 {
		opt.StepsPerTrial = 5
	}
	if opt.Repetitions <= 0 {
		opt.Repetitions = 3
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	cands := opt.Candidates
	if cands == nil {
		cands = Candidates(opt.NX, opt.NY, opt.NZ)
	}
	if len(cands) == 0 {
		return Result{}, fmt.Errorf("tune: no valid cube sizes for %d×%d×%d", opt.NX, opt.NY, opt.NZ)
	}
	var trials []Trial
	for _, k := range cands {
		var sheet *fiber.Sheet
		if opt.SheetSpec != nil {
			sheet = opt.SheetSpec()
		}
		s, err := cubesolver.NewSolver(cubesolver.Config{
			Config: core.Config{
				NX: opt.NX, NY: opt.NY, NZ: opt.NZ, Tau: opt.Tau,
				BodyForce: opt.BodyForce, Sheet: sheet,
			},
			CubeSize: k, Threads: opt.Threads,
		})
		if err != nil {
			return Result{}, fmt.Errorf("tune: k=%d: %w", k, err)
		}
		s.Step() // warm-up: page in the layout
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < opt.Repetitions; rep++ {
			t0 := time.Now()
			s.Run(opt.StepsPerTrial)
			if d := time.Since(t0) / time.Duration(opt.StepsPerTrial); d < best {
				best = d
			}
		}
		s.Close()
		trials = append(trials, Trial{CubeSize: k, PerStep: best})
	}
	sort.Slice(trials, func(i, j int) bool { return trials[i].PerStep < trials[j].PerStep })
	return Result{Best: trials[0], Trials: trials}, nil
}

// Render formats the tuning result.
func (r Result) Render() string {
	out := fmt.Sprintf("auto-tune: best cube size k=%d (%v/step)\n", r.Best.CubeSize, r.Best.PerStep.Round(time.Microsecond))
	for _, t := range r.Trials {
		out += fmt.Sprintf("  k=%-3d %v/step\n", t.CubeSize, t.PerStep.Round(time.Microsecond))
	}
	return out
}
