// Package crosscheck is the cross-engine differential-testing harness:
// it mechanizes the paper's validation methodology ("the new result is
// compared to that of the sequential implementation", Section VI-A) as a
// first-class subsystem instead of a handful of hand-picked test
// configurations.
//
// A deterministic generator (Gen) derives a randomized-but-valid
// simulation configuration from a seed — grid shapes including
// non-cube-divisible edges, cube sizes, thread counts, relaxation times,
// boundary combinations, moving lids, and zero-, one- and multi-sheet
// immersed structures, every fifth seed a dense pile of overlapping
// sheets. A Runner executes the same configuration on every
// applicable engine — including the fused single-sweep engine in both
// its float64 and float32 storage modes — and holds the results to the
// per-engine equivalence contract (bitwise where the engine is
// deterministic, tolerance where parallel force spreading reorders
// floating-point accumulation, and the relaxed Tol32 contract where
// float32 storage rounds every distribution once per step), checks
// physics invariants every few steps (finite fields, mass conservation,
// fiber arclength bounds, driven-momentum sign), runs metamorphic
// symmetry oracles (axis permutation, lid mirror) and a mid-run
// checkpoint/restore round-trip that must land back on the same
// trajectory.
//
// Every failure is replayable from its seed: `go run ./cmd/lbmib-crosscheck
// -seed N` re-executes the exact case and prints a minimized repro.
package crosscheck

import (
	"math"
	"math/rand"

	"lbmib"
)

// Case is one randomized crosscheck scenario. Config.Solver is ignored:
// the Runner instantiates the same configuration once per engine.
type Case struct {
	Seed       int64        `json:"seed"`
	Steps      int          `json:"steps"`
	CheckEvery int          `json:"check_every"` // invariant-oracle cadence
	Config     lbmib.Config `json:"config"`
}

// Gen derives a randomized-but-valid Case from seed, deterministically:
// the same seed always yields the same case, which is what makes every
// reported divergence replayable.
func Gen(seed int64) Case {
	r := rand.New(rand.NewSource(seed))

	// Structure first: zero-fiber (pure LBM), single-sheet, multi-sheet.
	nSheets := 1
	switch p := r.Float64(); {
	case p < 0.25:
		nSheets = 0
	case p > 0.75:
		nSheets = 2
	}

	// Every fifth seed is a dense case (genDense), whatever it drew above.
	dense := seed%5 == 4

	// Grid: edges are multiples of the cube size so the cube engines are
	// exercised by default; with immersed sheets the box keeps room for
	// the 4×4×4 delta support.
	k := []int{2, 3, 4}[r.Intn(3)]
	minMult := 2
	if nSheets > 0 || dense {
		minMult = (8 + k - 1) / k
	}
	dim := func() int { return k * (minMult + r.Intn(4)) }
	nx, ny, nz := dim(), dim(), dim()
	// Non-cube-divisible edges: the slab engines must still agree and the
	// cube engines must reject the shape (the Runner asserts both).
	if r.Float64() < 0.2 {
		off := 1
		if k > 2 {
			off += r.Intn(k - 1)
		}
		switch r.Intn(3) {
		case 0:
			nx += off
		case 1:
			ny += off
		default:
			nz += off
		}
	}

	cfg := lbmib.Config{
		NX: nx, NY: ny, NZ: nz,
		CubeSize: k,
		Threads:  1 + r.Intn(6),
	}

	// τ ∈ (0.55, 1.5); sometimes specified as a viscosity so the facade's
	// derivation path is exercised too.
	tau := 0.55 + r.Float64()*0.95
	if r.Float64() < 0.2 {
		cfg.Viscosity = (tau - 0.5) / 3
	} else {
		cfg.Tau = tau
	}

	bc := func() lbmib.Boundary {
		if r.Float64() < 0.4 {
			return lbmib.NoSlip
		}
		return lbmib.Periodic
	}
	cfg.BoundaryX, cfg.BoundaryY, cfg.BoundaryZ = bc(), bc(), bc()
	if cfg.BoundaryZ == lbmib.NoSlip && r.Float64() < 0.5 {
		cfg.LidVelocity = [3]float64{
			(r.Float64()*2 - 1) * 0.04,
			(r.Float64()*2 - 1) * 0.04,
			0,
		}
	}
	if r.Float64() < 0.7 {
		for d := 0; d < 3; d++ {
			cfg.BodyForce[d] = (r.Float64()*2 - 1) * 3e-5
		}
	}

	if dense {
		cfg.Sheets = genDense(r, nx, ny, nz)
		// One worker, two, and more than the ordinary cases' 1–6 (and
		// than the cores of a small host), in turn.
		cfg.Threads = []int{1, 2, 9}[seed/5%3]
	} else {
		for i := 0; i < nSheets; i++ {
			cfg.Sheets = append(cfg.Sheets, genSheet(r, nx, ny, nz))
		}
	}

	return Case{
		Seed:       seed,
		Steps:      4 + r.Intn(8),
		CheckEvery: 2 + r.Intn(2),
		Config:     cfg,
	}
}

// genSheet places a randomly-shaped sheet fully inside the box with
// enough margin (1.5 nodes below, 2.5 above) that its 4×4×4 delta
// support neither wraps the periodic images nor reaches across a wall.
func genSheet(r *rand.Rand, nx, ny, nz int) *lbmib.SheetConfig {
	nf := 3 + r.Intn(6) // fibers (spanning y)
	nn := 3 + r.Intn(6) // nodes per fiber (spanning z)
	maxW := float64(ny) - 4
	maxH := float64(nz) - 4
	w := math.Min(2+r.Float64()*(maxW-2), maxW)
	h := math.Min(2+r.Float64()*(maxH-2), maxH)
	span := func(n int, extent float64) float64 {
		free := float64(n) - 4 - extent
		if free < 0 {
			free = 0
		}
		return 1.5 + r.Float64()*free
	}
	sc := &lbmib.SheetConfig{
		NumFibers:     nf,
		NodesPerFiber: nn,
		Width:         w,
		Height:        h,
		Origin:        [3]float64{1.5 + r.Float64()*(float64(nx)-4), span(ny, w), span(nz, h)},
		Ks:            0.01 + r.Float64()*0.05,
		Kb:            0.0005 + r.Float64()*0.0015,
	}
	if r.Float64() < 0.3 {
		sc.FixedRadius = math.Min(w, h) / 3
	}
	return sc
}

// genDense piles four to six small sheets onto one spot, in the spirit
// of Beny & Latt's dense moving objects: every origin lies within half a
// node of a common corner and every sheet is at least one node wide, so
// all of them pass through the same x-plane and the same cube, and the
// fibers of different workers — the engines split the concatenated
// fibers between them — spread into the same blocks. The margins are
// genSheet's.
func genDense(r *rand.Rand, nx, ny, nz int) []*lbmib.SheetConfig {
	corner := [3]float64{
		1.5 + r.Float64()*(float64(nx)-4.5),
		1.5 + r.Float64()*(float64(ny)-7),
		1.5 + r.Float64()*(float64(nz)-7),
	}
	sheets := make([]*lbmib.SheetConfig, 4+r.Intn(3))
	for i := range sheets {
		sheets[i] = &lbmib.SheetConfig{
			NumFibers:     3 + r.Intn(3),
			NodesPerFiber: 3 + r.Intn(3),
			Width:         1 + r.Float64()*1.5,
			Height:        1 + r.Float64()*1.5,
			Origin: [3]float64{
				corner[0] + r.Float64()*0.5,
				corner[1] + r.Float64()*0.5,
				corner[2] + r.Float64()*0.5,
			},
			Ks: 0.01 + r.Float64()*0.05,
			Kb: 0.0005 + r.Float64()*0.0015,
		}
	}
	return sheets
}

// CubeDivisible reports whether the case's grid is divisible by its cube
// size on every axis — the cube-layout engines' admission condition.
func CubeDivisible(c Case) bool {
	k := c.Config.CubeSize
	return k > 0 && c.Config.NX%k == 0 && c.Config.NY%k == 0 && c.Config.NZ%k == 0
}
