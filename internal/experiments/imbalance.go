package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/fiber"
	"lbmib/internal/fused"
	"lbmib/internal/omp"
	"lbmib/internal/perfmon"
	"lbmib/internal/telemetry"
)

// ImbalanceRow is one engine's measured load-balance and contention
// profile — the reproduction of the paper's Table II imbalance column
// plus the wait attribution it could not measure.
type ImbalanceRow struct {
	Engine  string
	Threads int
	MLUPS   float64
	// ImbalanceRatio is max/mean of per-thread busy time (Table II's
	// metric): 1 = perfectly balanced.
	ImbalanceRatio float64
	// BarrierWaitShare is the fraction of total thread-time (threads ×
	// wall) spent waiting at barriers (cube) or at the parallel regions'
	// implicit barriers (omp).
	BarrierWaitShare float64
	// PhaseImbalance is the per-phase (cube) or per-kernel (omp) max/mean
	// ratio, keyed by phase/kernel name; phases with no samples are
	// omitted.
	PhaseImbalance map[string]float64
}

// ImbalanceResult is the OpenMP-vs-cube contention comparison on one
// multi-sheet problem.
type ImbalanceResult struct {
	NX, NY, NZ int
	CubeSize   int
	// Threads is the team width actually run: the configured width
	// capped at cores, the host's CPU count.
	Threads    int
	cores      int
	Steps      int
	FiberNodes int
	Rows       []ImbalanceRow
}

// imbalanceGrid returns the contention-comparison problem size: a
// two-sheet structure (the paper's "a number of 2-D sheets") so cross-
// thread force spreading actually contends.
func (o Options) imbalanceGrid() (nx, ny, nz, steps, threads int) {
	if o.Paper {
		nx, ny, nz, steps, threads = 124, 64, 64, 100, 8
	} else {
		nx, ny, nz, steps, threads = 32, 32, 32, 10, 4
	}
	if o.Steps > 0 {
		steps = o.Steps
	}
	return
}

// twoSheets places the scaled sheet twice, offset along y so both spread
// into overlapping cube neighborhoods near the domain center.
func (o Options) twoSheets(nx, ny, nz int) []*fiber.Sheet {
	n := 13
	if o.Paper {
		n = 52
	}
	w := float64(n) * 0.4
	mk := func(oy float64) *fiber.Sheet {
		return fiber.NewSheet(fiber.Params{
			NumFibers: n, NodesPerFiber: n, Width: w, Height: w,
			Origin: fiber.Vec3{float64(nx) / 4, oy, float64(nz)/2 - w/2},
			Ks:     0.05, Kb: 0.001,
		})
	}
	mid := float64(ny) / 2
	return []*fiber.Sheet{mk(mid - w - 0.7), mk(mid + 0.7)}
}

// LoadImbalance reproduces the Table II OpenMP-vs-cube load-imbalance
// comparison with the contention attribution layer: both engines run the
// same two-sheet problem under their wait profiles, and the result rows
// carry the imbalance ratio plus the barrier-wait share of total
// thread-time. With a non-nil reg the rows are also published as
// lbmib_load_imbalance_ratio{engine,phase} gauges (phase "total" for the
// whole step) and the contention profiles as
// lbmib_barrier_wait_seconds.
func LoadImbalance(opt Options, reg *telemetry.Registry) (ImbalanceResult, error) {
	nx, ny, nz, steps, threads := opt.imbalanceGrid()
	nodes := float64(nx) * float64(ny) * float64(nz)

	// A barrier wait means load imbalance only while every worker has a
	// core of its own; on a team wider than the host it measures
	// descheduling instead. Cap the team at the core count, and widen a
	// narrower scheduler up to the team — never past the cores.
	cores := runtime.NumCPU()
	if threads > cores {
		threads = cores
	}
	if prev := runtime.GOMAXPROCS(0); prev < threads {
		runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(prev)
	}

	res := ImbalanceResult{
		NX: nx, NY: ny, NZ: nz, CubeSize: 4, cores: cores, Threads: threads, Steps: steps,
	}
	for _, sh := range opt.twoSheets(nx, ny, nz) {
		res.FiberNodes += sh.NumNodes()
	}

	// Every engine runs the same problem under one profile; which events
	// reach it — parallel regions (omp) or loop nests and barrier sites
	// (cube, fused) — is the engine's business. The fused sweep's two
	// barrier sites feed the same wait attribution as the cube engine's
	// four, so the comparison covers the memory-aware engine too.
	for _, name := range []string{"omp", "cube", "fused", "fused-f32"} {
		cfg := core.Config{
			NX: nx, NY: ny, NZ: nz, Tau: 0.7,
			BodyForce: [3]float64{2e-5, 0, 0},
			Sheets:    opt.twoSheets(nx, ny, nz),
		}
		var (
			problem *core.Problem
			run     func(n int)
			done    func()
			err     error
		)
		switch name {
		case "omp":
			var s *omp.Solver
			if s, err = omp.NewSolver(omp.Config{Config: cfg, Threads: threads}); err == nil {
				problem, run, done = &s.Problem, s.Run, s.Close
			}
		case "cube":
			var s *cubesolver.Solver
			if s, err = cubesolver.NewSolver(cubesolver.Config{Config: cfg, CubeSize: res.CubeSize, Threads: threads}); err == nil {
				problem, run, done = &s.Problem, s.Run, s.Close
			}
		default:
			var s *fused.Solver
			if s, err = fused.NewSolver(fused.Config{Config: cfg, Threads: threads, Float32: name == "fused-f32"}); err == nil {
				problem, run, done = &s.Problem, s.Run, s.Close
			}
		}
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		prof := perfmon.NewProfile(perfmon.Config{Engine: name, Threads: threads})
		problem.Probe = prof
		t0 := time.Now()
		run(steps)
		wall := time.Since(t0)
		done()

		row := ImbalanceRow{
			Engine: name, Threads: threads,
			MLUPS:            nodes * float64(steps) / wall.Seconds() / 1e6,
			ImbalanceRatio:   prof.ImbalanceRatio(),
			BarrierWaitShare: prof.BarrierWaitShare(wall),
			PhaseImbalance:   map[string]float64{},
		}
		for k := core.Kernel(1); k <= core.NumKernels; k++ {
			if r := prof.KernelImbalanceRatio(k); r > 0 {
				row.PhaseImbalance[k.String()] = r
			}
		}
		for ph := core.Phase(1); ph <= core.NumPhases; ph++ {
			if r := prof.PhaseImbalanceRatio(ph); r > 0 {
				row.PhaseImbalance[ph.String()] = r
			}
		}
		res.Rows = append(res.Rows, row)
		if reg != nil {
			reg.Gauge("lbmib_bench_mlups", "Throughput per engine (million lattice updates per second).",
				telemetry.L("engine", name)).Set(row.MLUPS)
			prof.Publish(reg)
		}
	}

	return res, nil
}

// Render formats the contention comparison.
func (r ImbalanceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Load imbalance & contention (%d×%d×%d fluid, k=%d, %d fiber nodes, %d steps; %d cores, %d threads)\n",
		r.NX, r.NY, r.NZ, r.CubeSize, r.FiberNodes, r.Steps, r.cores, r.Threads)
	b.WriteString(header(fmt.Sprintf("%-9s", "Engine"), "  MLUPS", "imbal(max/mean)", "barrier-wait%"))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s  %6.2f  %15.3f  %12.2f%%\n",
			row.Engine, row.MLUPS, row.ImbalanceRatio, 100*row.BarrierWaitShare)
	}
	return b.String()
}
