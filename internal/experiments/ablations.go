package experiments

import (
	"fmt"
	"strings"
	"time"

	"lbmib/internal/cachesim"
	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/machine"
	"lbmib/internal/par"
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

// CubeSizeResult is the cube-size ablation (DESIGN.md ablation 1).
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
			NX: 32, NY: 32, NZ: 32, CubeSize: k, Threads: 1, Tau: 0.7,
			BodyForce: [3]float64{1e-5, 0, 0},
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

// DistRow is one distribution policy of the cube2thread ablation.
type DistRow struct {
	Dist         par.Dist
	ImbalancePct float64
	// RemoteFacePct is the share of cube-face neighbor pairs owned by
	// different threads — the inter-thread streaming surface, a proxy for
	// coherence traffic and for the locks crossed during force spreading.
	RemoteFacePct float64
	PredictedMs   float64
}

// DistResult is the distribution-policy ablation (DESIGN.md ablation 2).
type DistResult struct {
	CubeGrid [3]int
	Threads  int
	Rows     []DistRow
}

// AblationDistribution compares the block, cyclic and block-cyclic
// cube2thread policies on a cube grid that does not divide the thread
// mesh evenly, reporting the deterministic load imbalance and the
// predicted step time including it.
func AblationDistribution(opt Options) (DistResult, error) {
	m := machine.Thog()
	pred := perfsim.NewPredictor(m)
	tx, ty, tz := opt.traceGrid()
	tr, err := perfsim.Measure(m, &cachesim.Workload{
		NX: tx, NY: ty, NZ: tz, CubeSize: 16, Threads: 8, FiberRows: 26, FiberCols: 26,
	})
	if err != nil {
		return DistResult{}, err
	}
	// 5×5×5 cubes of 16³ nodes on 8 threads: 125 cubes cannot balance
	// perfectly. Because cube2thread is a product of per-axis maps, every
	// policy achieves the same ownership counts here — what distinguishes
	// them is locality: how much of the streaming surface crosses thread
	// boundaries.
	cm := par.CubeMap{CX: 5, CY: 5, CZ: 5, Mesh: par.NewMesh(8), BlockSize: 1}
	res := DistResult{CubeGrid: [3]int{5, 5, 5}, Threads: 8}
	for _, d := range []par.Dist{par.Block, par.Cyclic, par.BlockCyclic} {
		cm.Dist = d
		counts := cm.Counts()
		nodes := make([]int, len(counts))
		for i, c := range counts {
			nodes[i] = c * 16 * 16 * 16
		}
		tns, err := pred.StepTimeNs(tr, perfsim.Schedule{NodesPerThread: nodes, Barriers: 4})
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, DistRow{
			Dist:          d,
			ImbalancePct:  100 * perfmon.ScheduleImbalance(counts),
			RemoteFacePct: 100 * remoteFaceShare(cm),
			PredictedMs:   tns * 1e-6,
		})
	}
	return res, nil
}

// remoteFaceShare returns the fraction of periodic cube-face adjacencies
// whose two cubes have different owner threads.
func remoteFaceShare(cm par.CubeMap) float64 {
	wrap := func(i, n int) int {
		i %= n
		if i < 0 {
			i += n
		}
		return i
	}
	total, remote := 0, 0
	dirs := [3][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for x := 0; x < cm.CX; x++ {
		for y := 0; y < cm.CY; y++ {
			for z := 0; z < cm.CZ; z++ {
				own := cm.CubeToThread(x, y, z)
				for _, d := range dirs {
					n := cm.CubeToThread(wrap(x+d[0], cm.CX), wrap(y+d[1], cm.CY), wrap(z+d[2], cm.CZ))
					total++
					if n != own {
						remote++
					}
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(remote) / float64(total)
}

// Render formats the distribution ablation.
func (r DistResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — cube2thread distribution (%d×%d×%d cubes on %d threads)\n",
		r.CubeGrid[0], r.CubeGrid[1], r.CubeGrid[2], r.Threads)
	b.WriteString(header("Policy        ", "Imbalance", "  Remote faces", "  Predicted step"))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s  %8.2f%%  %12.2f%%  %13.2fms\n",
			row.Dist, row.ImbalancePct, row.RemoteFacePct, row.PredictedMs)
	}
	b.WriteString("product maps balance counts identically here; block minimizes the\n")
	b.WriteString("inter-thread streaming surface, cyclic maximizes it.\n")
	return b.String()
}

// BarrierRow is one barrier schedule of the synchronization ablation.
type BarrierRow struct {
	Schedule        cubesolver.BarrierSchedule
	BarriersPerStep int
	HostTime        time.Duration // measured wall time for the run on this host
	PredictedSyncNs float64       // modeled per-step synchronization cost at 64 threads
}

// BarrierResult is the barrier-minimization ablation (DESIGN.md ablation 3).
type BarrierResult struct{ Rows []BarrierRow }

// AblationBarriers compares the paper's minimized barrier schedule against
// a barrier-per-kernel schedule: measured wall time of a real run on this
// host (4 worker goroutines) plus the modeled synchronization cost per
// step at 64 threads on thog.
func AblationBarriers(opt Options) (BarrierResult, error) {
	m := machine.Thog()
	syncNs := m.BarrierBaseNs + 64*m.BarrierPerThreadNs
	var res BarrierResult
	for _, cfg := range []struct {
		sched    cubesolver.BarrierSchedule
		barriers int
	}{
		{cubesolver.BarrierMinimal, 4},
		{cubesolver.BarrierPerKernel, 6},
	} {
		sheet := opt.sheet52([3]int{32, 32, 32})
		s, err := cubesolver.NewSolver(cubesolver.Config{
			NX: 32, NY: 32, NZ: 32, CubeSize: 8, Threads: 4, Tau: 0.7,
			BodyForce: [3]float64{1e-5, 0, 0}, Sheet: sheet, Barriers: cfg.sched,
		})
		if err != nil {
			return res, err
		}
		const steps = 10
		t0 := time.Now()
		s.Run(steps)
		host := time.Since(t0) / steps
		s.Close()
		res.Rows = append(res.Rows, BarrierRow{
			Schedule:        cfg.sched,
			BarriersPerStep: cfg.barriers,
			HostTime:        host,
			PredictedSyncNs: float64(cfg.barriers) * syncNs,
		})
	}
	return res, nil
}

// Render formats the barrier ablation.
func (r BarrierResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — barrier schedule (global synchronizations per time step)\n")
	b.WriteString(header("Schedule   ", "Barriers/step", "  Host step (4 thr)", "  Modeled sync @64 thr"))
	for _, row := range r.Rows {
		name := "minimal"
		if row.Schedule == cubesolver.BarrierPerKernel {
			name = "per-kernel"
		}
		fmt.Fprintf(&b, "%-11s  %13d  %18s  %18.1fµs\n",
			name, row.BarriersPerStep, fmtDuration(row.HostTime), row.PredictedSyncNs/1000)
	}
	return b.String()
}

// CopySwapResult is the kernel-9 ablation (DESIGN.md ablation 4).
type CopySwapResult struct {
	CopySharePct float64
	Total        time.Duration
	CopyTime     time.Duration
}

// AblationCopyVsSwap quantifies what kernel 9's explicit buffer copy
// costs on the sequential reference, the one solver that keeps it as the
// paper publishes it; the parallel engines retire it to an O(1) buffer
// swap.
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
	prof := &perfmon.KernelProfile{}
	s.Observer = prof
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
	b.WriteString("the parallel engines flip a buffer-parity bit in O(1) instead.\n")
	return b.String()
}

// LayoutRow is one layout of the layout-locality ablation.
type LayoutRow struct {
	Name                string
	L1Pct, L2Pct, L3Pct float64
	MemPerNode          float64
}

// LayoutResult is the slab-vs-cube cache ablation (DESIGN.md ablation 5).
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
