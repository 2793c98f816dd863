package main

import (
	"fmt"
	"math/rand"

	"lbmib"
)

// workload is one named set of inputs. The program under test only ever
// sees the lbmib.Config that build generates from the seed; every
// workload is a closed loop with one caller.
type workload struct {
	name string
	why  string
	// blocks × blockSteps is the timed window at the default -seconds;
	// -seconds scales the block count, never the problem's shape. A block
	// is driven as chunks equal Run calls (default 1), a burst of the
	// reference kernel after each.
	blocks, blockSteps, chunks int
	// observed drives the run as production does: telemetry registry,
	// watchdog, step log and flight recorder at their default cadences,
	// output files every 64 steps and a final Checkpoint → Restore.
	observed bool
	build    func(r *rand.Rand, threads int) lbmib.Config
}

// jitter is the ±10 % factor applied to a force or lid magnitude.
func jitter(r *rand.Rand) float64 { return 0.9 + 0.2*r.Float64() }

// offset is the seed's displacement of every sheet origin: uniform in
// [0,1)³ lattice units, so the delta stencils land differently on the
// lattice from seed to seed.
func offset(r *rand.Rand) [3]float64 {
	return [3]float64{r.Float64(), r.Float64(), r.Float64()}
}

// sheetAt places a flat n×n sheet (node spacing 0.4, so it is n·0.4
// wide — the geometry lbmib-sim builds) with fiber 0, node 0 at
// (x, centred, centred) + off.
func sheetAt(off [3]float64, n int, x float64, ny, nz int) *lbmib.SheetConfig {
	w := float64(n) * 0.4
	return &lbmib.SheetConfig{
		NumFibers: n, NodesPerFiber: n,
		Width: w, Height: w,
		Origin: [3]float64{
			x + off[0],
			float64(ny)/2 - w/2 + off[1],
			float64(nz)/2 - w/2 + off[2],
		},
		Ks: 0.05, Kb: 0.001,
	}
}

const (
	tau       = 0.7
	bodyForce = 2e-5
)

func sheetCubeConfig(r *rand.Rand, threads int) lbmib.Config {
	return lbmib.Config{
		NX: 64, NY: 64, NZ: 32, Tau: tau,
		BodyForce: [3]float64{bodyForce * jitter(r), 0, 0},
		BoundaryZ: lbmib.NoSlip,
		Solver:    lbmib.CubeBased, Threads: threads, CubeSize: 8,
		Sheets: []*lbmib.SheetConfig{sheetAt(offset(r), 52, 16, 64, 32)},
	}
}

var workloads = []workload{
	{
		name:   "channel_seq",
		why:    "plain single-threaded 64^3 fluid-only baseline: lattice+core collide/stream/update/copy are the whole step, so a kernel or layout change shows here first",
		blocks: 18, blockSteps: 4, chunks: 2,
		build: func(r *rand.Rand, _ int) lbmib.Config {
			return lbmib.Config{
				NX: 64, NY: 64, NZ: 64, Tau: tau,
				BodyForce: [3]float64{bodyForce * jitter(r), 0, 0},
				BoundaryZ: lbmib.NoSlip,
				Solver:    lbmib.Sequential,
			}
		},
	},
	{
		name:   "sheet_cube",
		why:    "the paper's headline configuration (Algorithm 4): cube engine k=8 on 2 threads, 64x64x32 with one 52x52 sheet; exercises cube ownership, barriers and the lock-free spread reduction",
		blocks: 18, blockSteps: 12, chunks: 2,
		build: sheetCubeConfig,
	},
	{
		name:   "cavity_fused",
		why:    "fused pull-sweep engine on a 64^3 lid-driven cavity: bounce-back and moving-lid resolution on six faces instead of periodic wrap, so an interior gain that costs the boundary path shows",
		blocks: 18, blockSteps: 8, chunks: 2,
		build: func(r *rand.Rand, threads int) lbmib.Config {
			return lbmib.Config{
				NX: 64, NY: 64, NZ: 64, Tau: tau,
				BoundaryX: lbmib.NoSlip, BoundaryY: lbmib.NoSlip, BoundaryZ: lbmib.NoSlip,
				LidVelocity: [3]float64{0.05 * jitter(r), 0, 0},
				Solver:      lbmib.Fused, Threads: threads,
			}
		},
	},
	{
		name:   "dense_ib",
		why:    "8 overlapping 64x64 sheets (32768 fiber nodes) in a 32^3 periodic box on the omp engine: fiber forces, spread and interpolate are most of the step and the fluid kernels little",
		blocks: 18, blockSteps: 10, chunks: 2,
		build: func(r *rand.Rand, threads int) lbmib.Config {
			cfg := lbmib.Config{
				NX: 32, NY: 32, NZ: 32, Tau: tau,
				BodyForce: [3]float64{bodyForce * jitter(r), 0, 0},
				Solver:    lbmib.OpenMP, Threads: threads,
			}
			off := offset(r)
			for i := 0; i < 8; i++ {
				cfg.Sheets = append(cfg.Sheets, sheetAt(off, 64, 4+3*float64(i), 32, 32))
			}
			return cfg
		},
	},
	{
		name:   "sim_pipeline",
		why:    "the sheet_cube problem driven as a production run: registry, watchdog, step log, flight recorder, output files every 64 steps, Checkpoint then Restore; observability, output, checkpoint work only here",
		blocks: 16, blockSteps: 16, chunks: 4,
		observed: true,
		build:    sheetCubeConfig,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config generates the workload's inputs from the seed: the same seed
// gives the same Config.
func (w workload) config(seed int64, threads int) lbmib.Config {
	return w.build(rand.New(rand.NewSource(seed)), threads)
}
