// Benchmarks regenerating the paper's tables and figures (one per
// experiment; see DESIGN.md's per-experiment index) plus the design
// ablations. Each benchmark times the reproduction machinery itself and
// reports the experiment's headline number as a custom metric, so
// `go test -bench=. -benchmem` doubles as a compact results table.
package lbmib_test

import (
	"fmt"
	"testing"

	"lbmib/internal/cachesim"
	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/experiments"
	"lbmib/internal/fiber"
	"lbmib/internal/machine"
	"lbmib/internal/omp"
	"lbmib/internal/perfmon"
	"lbmib/internal/taskflow"
)

func benchSheet() *fiber.Sheet {
	return fiber.NewSheet(fiber.Params{
		NumFibers: 16, NodesPerFiber: 16, Width: 6.4, Height: 6.4,
		Origin: fiber.Vec3{8, 12, 12}, Ks: 0.05, Kb: 0.001,
	})
}

// BenchmarkTable1SequentialKernels times one sequential LBM-IB step (all
// nine kernels of Algorithm 1) and reports the collision kernel's share of
// the step — Table I's headline row (paper: 73.2% on their hardware).
func BenchmarkTable1SequentialKernels(b *testing.B) {
	s := core.MustNewSolver(core.Config{
		NX: 32, NY: 32, NZ: 32, Tau: 0.7,
		BodyForce: [3]float64{2e-5, 0, 0}, Sheet: benchSheet(),
	})
	prof := perfmon.NewProfile(perfmon.Config{})
	s.Probe = prof
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	if total := prof.Total(); total > 0 {
		b.ReportMetric(100*float64(prof.KernelTime(core.KComputeCollision))/float64(total), "collision-%")
	}
}

// BenchmarkFig5OpenMPScaling runs the full Figure 5 experiment — trace
// replay through the Abu Dhabi cache model plus the strong-scaling
// prediction for 1–32 cores — and reports the 32-core parallel efficiency
// (paper: 38%).
func BenchmarkFig5OpenMPScaling(b *testing.B) {
	var eff32 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eff32 = r.Rows[len(r.Rows)-1].Efficiency
	}
	b.ReportMetric(100*eff32, "eff32-%")
}

// BenchmarkTable2CacheMetrics runs the full Table II experiment — the
// OpenMP-style solver's address streams through the simulated cache
// hierarchy (the PAPI substitute) — and reports the 32-core L2 miss rate
// (paper: 27.6%).
func BenchmarkTable2CacheMetrics(b *testing.B) {
	var l2 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		l2 = r.Rows[len(r.Rows)-1].L2MissPct
	}
	b.ReportMetric(l2, "L2miss-%")
}

// BenchmarkFig8WeakScaling runs the full Figure 8 experiment for both
// layouts and reports the maximum OMP/cube time ratio (paper: up to 1.53).
func BenchmarkFig8WeakScaling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.MaxRatio()
	}
	b.ReportMetric(ratio, "omp/cube-max")
}

// reportMLUPS converts a finished per-step benchmark over a 32³ grid
// into million lattice-node updates per second.
func reportMLUPS(b *testing.B) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(32*32*32)*float64(b.N)/secs/1e6, "MLUPS")
	}
}

// benchConfig is the 32³ sheet problem every engine benchmark steps.
func benchConfig() core.Config {
	return core.Config{NX: 32, NY: 32, NZ: 32, Tau: 0.7,
		BodyForce: [3]float64{2e-5, 0, 0}, Sheet: benchSheet()}
}

// BenchmarkSolverStep times one full LBM-IB step per engine on identical
// inputs — the real-code counterpart of the modeled comparisons — and
// reports each engine's throughput in MLUPS.
func BenchmarkSolverStep(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		s := core.MustNewSolver(benchConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		reportMLUPS(b)
	})
	b.Run("omp-4thr", func(b *testing.B) {
		s := omp.MustNewSolver(omp.Config{Config: benchConfig(), Threads: 4})
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		reportMLUPS(b)
	})
	b.Run("cube-4thr-k8", func(b *testing.B) {
		s, err := cubesolver.NewSolver(cubesolver.Config{Config: benchConfig(), CubeSize: 8, Threads: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		reportMLUPS(b)
	})
	b.Run("taskflow-4wrk-k8", func(b *testing.B) {
		s, err := taskflow.NewSolver(taskflow.Config{Config: benchConfig(), CubeSize: 8, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		reportMLUPS(b)
	})
}

// BenchmarkExtensionTaskflowVsBarriers contrasts the barrier-synchronized
// cube solver against the task-scheduled extension on identical inputs —
// the paper's future-work claim that dynamic task scheduling can remove
// global synchronizations.
func BenchmarkExtensionTaskflowVsBarriers(b *testing.B) {
	b.Run("barriers", func(b *testing.B) {
		s, err := cubesolver.NewSolver(cubesolver.Config{Config: benchConfig(), CubeSize: 8, Threads: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("taskflow", func(b *testing.B) {
		s, err := taskflow.NewSolver(taskflow.Config{Config: benchConfig(), CubeSize: 8, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
}

// BenchmarkAblationCubeSize sweeps the cube edge k on the real cube
// solver (DESIGN.md §9 ablation 1).
func BenchmarkAblationCubeSize(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(benchName("k", k), func(b *testing.B) {
			s, err := cubesolver.NewSolver(cubesolver.Config{
				Config:   core.Config{NX: 32, NY: 32, NZ: 32, Tau: 0.7, BodyForce: [3]float64{1e-5, 0, 0}},
				CubeSize: k, Threads: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkAblationCopyVsSwap times kernel 9 alone — what a pointer-swap
// scheme would save per step (DESIGN.md §9 ablation 2).
func BenchmarkAblationCopyVsSwap(b *testing.B) {
	s := core.MustNewSolver(core.Config{NX: 32, NY: 32, NZ: 32, Tau: 0.7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CopyDistribution()
	}
}

// BenchmarkAblationLayoutCache replays one step per layout through the
// cache simulator (DESIGN.md §9 ablation 3) and reports DRAM lines per node.
func BenchmarkAblationLayoutCache(b *testing.B) {
	for _, cfg := range []struct {
		name string
		k    int
	}{{"slab", 0}, {"cube-k16", 16}} {
		b.Run(cfg.name, func(b *testing.B) {
			m := machine.Thog()
			var mem float64
			for i := 0; i < b.N; i++ {
				h, err := cachesim.NewHierarchy(m, 4)
				if err != nil {
					b.Fatal(err)
				}
				w := &cachesim.Workload{NX: 32, NY: 32, NZ: 32, CubeSize: cfg.k, Threads: 4}
				if err := w.ReplayStep(h); err != nil {
					b.Fatal(err)
				}
				mem = float64(h.LevelStats(cachesim.L3Hit).Misses) / float64(32*32*32)
			}
			b.ReportMetric(mem, "DRAM-lines/node")
		})
	}
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}
