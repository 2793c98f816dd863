package perfsim

import (
	"fmt"
	"sort"
)

// MeasuredPhase is one step phase with measured per-thread busy seconds
// (per step), taken from perfmon's critical-path report.
// Unlike the first-principles predictor above, the what-if estimator
// starts from what actually ran and perturbs it.
type MeasuredPhase struct {
	Name string
	Busy []float64 // seconds per thread per step
}

// WhatIfScenario is one predicted configuration: its step time, MLUPS,
// and speedup relative to the measured baseline.
type WhatIfScenario struct {
	Name        string  `json:"name"`
	StepSeconds float64 `json:"stepSeconds"`
	MLUPS       float64 `json:"mlups"`
	SpeedupPct  float64 `json:"speedupPct"`
}

// WhatIf predicts step times for a family of fixes from a measured
// per-phase per-thread busy profile. The model is the barrier-synced
// phase chain every engine here runs:
//
//	T_step = Σ_phases max_t busy[t] + nbarriers × sync
//
// with one barrier after each phase and sync the per-crossing
// synchronization cost. Scenarios:
//
//   - "measured" — the baseline, speedup 0 by construction;
//   - "perfect balance" — each phase's max replaced by its mean: the
//     ceiling any rebalancing (cube redistribution, dynamic schedules)
//     can reach;
//   - "merge barrier after <phase>" — one scenario per interior site:
//     the two adjacent phases fuse, so their critical times combine as
//     max_t(a[t]+b[t]) ≤ max_t a + max_t b and one sync disappears —
//     the gain of folding that barrier into a dependency graph;
//   - "threads ×2" — each phase's work redistributes over 2T threads
//     keeping its measured imbalance ratio, sync cost unchanged: a
//     crude strong-scaling extrapolation that deliberately ignores
//     memory-bandwidth saturation (perfsim's first-principles model
//     covers that; this answers "is there parallelism left to take").
//
// nodes is the lattice size for MLUPS conversion. The baseline is
// first; the rest are ranked by predicted speedup, best first.
func WhatIf(nodes float64, threads int, phases []MeasuredPhase, sync float64) []WhatIfScenario {
	if len(phases) == 0 || threads < 1 {
		return nil
	}
	if sync < 0 {
		sync = 0
	}
	maxOf := func(b []float64) float64 {
		var m float64
		for _, v := range b {
			if v > m {
				m = v
			}
		}
		return m
	}
	meanOf := func(b []float64) float64 {
		if len(b) == 0 {
			return 0
		}
		var s float64
		for _, v := range b {
			s += v
		}
		return s / float64(len(b))
	}
	nb := float64(len(phases))
	base := nb * sync
	for _, ph := range phases {
		base += maxOf(ph.Busy)
	}
	if base <= 0 {
		return nil
	}
	mk := func(name string, t float64) WhatIfScenario {
		if t <= 0 {
			t = base
		}
		return WhatIfScenario{
			Name:        name,
			StepSeconds: t,
			MLUPS:       nodes / t / 1e6,
			SpeedupPct:  100 * (base/t - 1),
		}
	}

	out := []WhatIfScenario{mk("measured", base)}
	var alts []WhatIfScenario

	balanced := nb * sync
	for _, ph := range phases {
		balanced += meanOf(ph.Busy)
	}
	alts = append(alts, mk("perfect balance", balanced))

	for i := 0; i+1 < len(phases); i++ {
		t := (nb - 1) * sync
		for j, ph := range phases {
			if j == i || j == i+1 {
				continue
			}
			t += maxOf(ph.Busy)
		}
		merged := make([]float64, 0, len(phases[i].Busy))
		for tdx := range phases[i].Busy {
			v := phases[i].Busy[tdx]
			if tdx < len(phases[i+1].Busy) {
				v += phases[i+1].Busy[tdx]
			}
			merged = append(merged, v)
		}
		t += maxOf(merged)
		alts = append(alts, mk(fmt.Sprintf("merge barrier after %s", phases[i].Name), t))
	}

	t2 := nb * sync
	for _, ph := range phases {
		mean, max := meanOf(ph.Busy), maxOf(ph.Busy)
		ratio := 1.0
		if mean > 0 {
			ratio = max / mean
		}
		t2 += mean * float64(threads) / float64(2*threads) * ratio
	}
	alts = append(alts, mk(fmt.Sprintf("threads ×2 (%d→%d)", threads, 2*threads), t2))

	sort.SliceStable(alts, func(i, j int) bool { return alts[i].SpeedupPct > alts[j].SpeedupPct })
	return append(out, alts...)
}
