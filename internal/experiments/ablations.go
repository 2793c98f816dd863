package experiments

import (
	"fmt"
	"strings"
	"time"

	"lbmib/internal/cachesim"
	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/machine"
	"lbmib/internal/perfmon"
	"lbmib/internal/perfsim"
)

// CubeSizeRow is one cube-size configuration of the k-sweep ablation.
type CubeSizeRow struct {
	K            int
	MemPerNode   float64       // simulated DRAM line fetches per node per step
	Predicted64  float64       // predicted 64-core weak-scaling step, ms
	HostStepTime time.Duration // measured real single-thread step on this host
}

// CubeSizeResult is the cube-size ablation (DESIGN.md §9 ablation 1).
type CubeSizeResult struct{ Rows []CubeSizeRow }

// AblationCubeSize sweeps the cube edge k: smaller cubes fit caches better
// but pay more cross-cube streaming; larger cubes amortize surfaces but
// overflow L2. Reported per k: simulated DRAM traffic, the predicted
// 64-core weak-scaling time, and a real measured single-thread step on
// this host (whose caches also feel the layout).
func AblationCubeSize(opt Options) (CubeSizeResult, error) {
	m := machine.Thog()
	pred := perfsim.NewPredictor(m)
	tx, ty, tz := opt.traceGrid()
	var res CubeSizeResult
	for _, k := range []int{4, 8, 16, 32} {
		tr, err := perfsim.Measure(m, &cachesim.Workload{
			NX: tx, NY: ty, NZ: tz, CubeSize: k, Threads: 8, FiberRows: 26, FiberCols: 26,
		})
		if err != nil {
			return res, err
		}
		nodes := make([]int, 64)
		for i := range nodes {
			nodes[i] = 64 * 64 * 64
		}
		tns, err := pred.StepTimeNs(tr, perfsim.Schedule{NodesPerThread: nodes, Barriers: 4})
		if err != nil {
			return res, err
		}

		s, err := cubesolver.NewSolver(cubesolver.Config{
			Config:   core.Config{NX: 32, NY: 32, NZ: 32, Tau: 0.7, BodyForce: [3]float64{1e-5, 0, 0}},
			CubeSize: k, Threads: 1,
		})
		if err != nil {
			return res, err
		}
		// Best-of-3 batches: the minimum filters scheduler noise on a
		// shared host.
		const steps = 5
		host := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			s.Run(steps)
			if d := time.Since(t0) / steps; d < host {
				host = d
			}
		}
		s.Close()

		res.Rows = append(res.Rows, CubeSizeRow{
			K: k, MemPerNode: tr.Mem, Predicted64: tns * 1e-6, HostStepTime: host,
		})
	}
	return res, nil
}

// Render formats the cube-size ablation.
func (r CubeSizeResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — cube size k (locality vs surface overhead)\n")
	b.WriteString(header("   k", "DRAM/node", "  Predicted 64-core step", "  Host 1-thread step"))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%4d  %9.2f  %21.2fms  %20s\n",
			row.K, row.MemPerNode, row.Predicted64, fmtDuration(row.HostStepTime))
	}
	return b.String()
}

// CopySwapResult is the kernel-9 ablation (DESIGN.md §9 ablation 2).
type CopySwapResult struct {
	CopySharePct float64
	Total        time.Duration
	CopyTime     time.Duration
}

// AblationCopyVsSwap quantifies what kernel 9's explicit buffer copy
// costs on the sequential reference, the one solver that keeps it as the
// paper publishes it; the parallel engines stream in place and have no
// second array to copy.
func AblationCopyVsSwap(opt Options) (CopySwapResult, error) {
	nx, ny, nz, steps := opt.table1Grid()
	sheet := opt.sheet52([3]int{nx, ny, nz})
	s, err := core.NewSolver(core.Config{
		NX: nx, NY: ny, NZ: nz, Tau: 0.7,
		BodyForce: [3]float64{2e-5, 0, 0}, Sheet: sheet,
	})
	if err != nil {
		return CopySwapResult{}, err
	}
	prof := perfmon.NewProfile(perfmon.Config{})
	s.Probe = prof
	s.Run(steps)
	copyTime := prof.KernelTime(core.KCopyDistribution)
	total := prof.Total()
	share := 0.0
	if total > 0 {
		share = 100 * float64(copyTime) / float64(total)
	}
	return CopySwapResult{CopySharePct: share, Total: total, CopyTime: copyTime}, nil
}

// Render formats the copy-vs-swap ablation.
func (r CopySwapResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — kernel 9 buffer copy vs pointer swap\n")
	fmt.Fprintf(&b, "copy_fluid_velocity_distribution: %s of %s total (%.2f%%; paper: 5.9%%)\n",
		fmtDuration(r.CopyTime), fmtDuration(r.Total), r.CopySharePct)
	b.WriteString("the sequential reference keeps kernel 9 as published and pays the copy;\n")
	b.WriteString("the parallel engines stream in place and keep no second array to copy.\n")
	return b.String()
}

// LayoutRow is one layout of the layout-locality ablation.
type LayoutRow struct {
	Name                string
	L1Pct, L2Pct, L3Pct float64
	MemPerNode          float64
}

// LayoutResult is the slab-vs-cube cache ablation (DESIGN.md §9 ablation 3).
type LayoutResult struct{ Rows []LayoutRow }

// AblationLayoutCache contrasts the slab and cube layouts' simulated cache
// behavior under identical work — the measured basis of the paper's
// locality argument.
func AblationLayoutCache(opt Options) (LayoutResult, error) {
	m := machine.Thog()
	tx, ty, tz := opt.traceGrid()
	var res LayoutResult
	for _, cfg := range []struct {
		name string
		k    int
	}{{"slab (OpenMP)", 0}, {"cube k=16", 16}} {
		h, err := cachesim.NewHierarchy(m, 8)
		if err != nil {
			return res, err
		}
		w := &cachesim.Workload{NX: tx, NY: ty, NZ: tz, CubeSize: cfg.k, Threads: 8,
			FiberRows: 26, FiberCols: 26}
		if err := w.ReplayStep(h); err != nil {
			return res, err
		}
		h.ResetStats()
		if err := w.ReplayStep(h); err != nil {
			return res, err
		}
		l1, l2, l3 := h.MissRates()
		mem := float64(h.LevelStats(cachesim.L3Hit).Misses) / float64(tx*ty*tz)
		res.Rows = append(res.Rows, LayoutRow{
			Name: cfg.name, L1Pct: 100 * l1, L2Pct: 100 * l2, L3Pct: 100 * l3, MemPerNode: mem,
		})
	}
	return res, nil
}

// Render formats the layout ablation.
func (r LayoutResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — data layout cache behavior (8 simulated cores)\n")
	b.WriteString(header("Layout        ", " L1miss", " L2miss", " L3miss", " DRAM/node"))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s  %6.2f%%  %6.2f%%  %6.2f%%  %9.2f\n",
			row.Name, row.L1Pct, row.L2Pct, row.L3Pct, row.MemPerNode)
	}
	return b.String()
}
