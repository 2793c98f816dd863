package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"lbmib/internal/cube"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/ibm"
)

// The per-stencil coupling bodies (grid.Coupling behind both layouts,
// SpreadAccum.SpreadStencil) are pinned, bit for bit, to the per-point
// API they replaced. The oracle below is that API as it stood: one
// interface call per stencil point, three WrapIndex moduli and an Idx per
// call.

type pointField interface {
	addForce(x, y, z int, f [3]float64)
	velocityAt(x, y, z int) [3]float64
}

// layoutPoints is grid.(*Grid).AddForce/VelocityAt and
// cube.(*Layout).AddForce/VelocityAt, which had one body.
type layoutPoints struct{ l Layout }

func (p layoutPoints) addForce(x, y, z int, f [3]float64) {
	x, y, z = p.l.Wrap(x, y, z)
	n := &p.l.Macros()[p.l.Idx(x, y, z)]
	n.Force[0] += f[0]
	n.Force[1] += f[1]
	n.Force[2] += f[2]
}

func (p layoutPoints) velocityAt(x, y, z int) [3]float64 {
	x, y, z = p.l.Wrap(x, y, z)
	return p.l.Macros()[p.l.Idx(x, y, z)].Vel
}

// accumPoints is SpreadAccum.AddForce.
type accumPoints struct{ a *SpreadAccum }

func (p accumPoints) addForce(x, y, z int, f [3]float64) {
	a := p.a
	x = grid.WrapIndex(x, len(a.blk[0]))
	y = grid.WrapIndex(y, len(a.blk[1]))
	z = grid.WrapIndex(z, len(a.blk[2]))
	b := a.blk[0][x] + a.blk[1][y] + a.blk[2][z]
	i := a.off[0][x] + a.off[1][y] + a.off[2][z]
	q := &a.macro[b*a.blockLen+i].Force
	if a.owner == nil || a.owner[b] != a.tid {
		q = &a.block(b)[i]
	}
	q[0] += f[0]
	q[1] += f[1]
	q[2] += f[2]
}

func (p accumPoints) velocityAt(x, y, z int) [3]float64 { panic("accumulators do not sample") }

// oracleSpread is ibm.SpreadStencil.
func oracleSpread(acc pointField, st *ibm.Stencil, F [3]float64, area float64) {
	for i := 0; i < ibm.SupportWidth; i++ {
		if st.Wx[i] == 0 {
			continue
		}
		for j := 0; j < ibm.SupportWidth; j++ {
			wxy := st.Wx[i] * st.Wy[j]
			if wxy == 0 {
				continue
			}
			for k := 0; k < ibm.SupportWidth; k++ {
				w := wxy * st.Wz[k] * area
				if w == 0 {
					continue
				}
				acc.addForce(st.Base[0]+i, st.Base[1]+j, st.Base[2]+k,
					[3]float64{F[0] * w, F[1] * w, F[2] * w})
			}
		}
	}
}

// oracleInterpolate is ibm.InterpolateStencil.
func oracleInterpolate(v pointField, st *ibm.Stencil) [3]float64 {
	var u [3]float64
	for i := 0; i < ibm.SupportWidth; i++ {
		if st.Wx[i] == 0 {
			continue
		}
		for j := 0; j < ibm.SupportWidth; j++ {
			wxy := st.Wx[i] * st.Wy[j]
			if wxy == 0 {
				continue
			}
			for k := 0; k < ibm.SupportWidth; k++ {
				w := wxy * st.Wz[k]
				if w == 0 {
					continue
				}
				uv := v.velocityAt(st.Base[0]+i, st.Base[1]+j, st.Base[2]+k)
				u[0] += w * uv[0]
				u[1] += w * uv[1]
				u[2] += w * uv[2]
			}
		}
	}
	return u
}

func sameBits(a, b [3]float64) bool {
	for d := range a {
		if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
			return false
		}
	}
	return true
}

// couplingPositions returns n seeded fiber-node positions for an
// nx×ny×nz box that between them exercise every way a stencil meets the
// layout: far outside on both sides (negative coordinates included),
// straddling each periodic seam and each multiple of the block edge k,
// exactly on lattice points (zero-weight outer layers), a million boxes
// away, and non-finite or unrepresentably large in one coordinate.
func couplingPositions(r *rand.Rand, n int, dims [3]int, k int) [][3]float64 {
	uniform := func() [3]float64 {
		var x [3]float64
		for a := range x {
			x[a] = (r.Float64()*5 - 2) * float64(dims[a])
		}
		return x
	}
	xs := make([][3]float64, 0, n)
	for len(xs) < n {
		x := uniform()
		a := r.Intn(3)
		switch len(xs) % 8 {
		case 1: // a seam or block boundary, from just below to just above
			x[a] = float64(k*r.Intn(dims[a]/k+2)) + r.Float64()*4 - 2
		case 2: // lattice-aligned on every axis
			for b := range x {
				x[b] = math.Floor(x[b])
			}
		case 3: // lattice-aligned on one axis
			x[a] = math.Floor(x[a])
		case 4:
			x[a] = (r.Float64()*2 - 1) * 2e6
		case 5:
			x[a] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.MaxInt64, math.MinInt64}[r.Intn(7)]
		}
		xs = append(xs, x)
	}
	return xs
}

// randomize fills the force and velocity fields of a and b identically;
// a share of the force components are −0, which an unskipped zero-weight
// point (adding +0) would flip.
func randomize(r *rand.Rand, a, b []grid.Macro) {
	for i := range a {
		for d := 0; d < 3; d++ {
			a[i].Force[d] = r.NormFloat64()
			if r.Intn(4) == 0 {
				a[i].Force[d] = math.Copysign(0, -1)
			}
			a[i].Vel[d] = r.NormFloat64() * 0.1
		}
		b[i].Force, b[i].Vel = a[i].Force, a[i].Vel
	}
}

func randomForce(r *rand.Rand) [3]float64 {
	F := [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	if r.Intn(5) == 0 {
		F[r.Intn(3)] = 0
	}
	return F
}

type couplingLayout interface {
	Layout
	ibm.ForceAccumulator
	ibm.VelocitySampler
}

var couplingLayouts = []struct {
	name string
	k    int // block edge along the axes that have one, for seam placement
	make func() couplingLayout
}{
	{"slab-12x8x16", 4, func() couplingLayout { return grid.New(12, 8, 16) }},
	{"slab-1x2x3", 1, func() couplingLayout { return grid.New(1, 2, 3) }},
	{"slab-3x1x2", 1, func() couplingLayout { return grid.New(3, 1, 2) }},
	{"cube4-12x8x16", 4, func() couplingLayout { return mustCubes(12, 8, 16, 4) }},
	{"cube8-16x8x24", 8, func() couplingLayout { return mustCubes(16, 8, 24, 8) }},
	{"cube1-2x3x1", 1, func() couplingLayout { return mustCubes(2, 3, 1, 1) }},
}

func mustCubes(nx, ny, nz, k int) *cube.Layout {
	l, err := cube.NewLayout(nx, ny, nz, k)
	if err != nil {
		panic(err)
	}
	return l
}

func dimsOf(l Layout) [3]int {
	nx, ny, nz := l.Dims()
	return [3]int{nx, ny, nz}
}

func compareForces(t *testing.T, got, want []grid.Macro) {
	t.Helper()
	for i := range got {
		if !sameBits(got[i].Force, want[i].Force) {
			t.Fatalf("node %d force = %v, per-point oracle %v", i, got[i].Force, want[i].Force)
		}
	}
}

// Spread into a random force field and gather from a random velocity
// field through both layouts equal the per-point oracle bit for bit.
func TestCouplingMatchesPerPointOracle(t *testing.T) {
	const stencils = 12000
	for _, tc := range couplingLayouts {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(21))
			l, ref := tc.make(), tc.make()
			randomize(r, l.Macros(), ref.Macros())
			oracle := layoutPoints{ref}
			for n, x := range couplingPositions(r, stencils, dimsOf(l), tc.k) {
				var st ibm.Stencil
				st.Compute(x)
				F, area := randomForce(r), r.Float64()
				if n%97 == 0 {
					area = 0
				}
				if got, want := ibm.Interpolate(l, x), oracleInterpolate(oracle, &st); !sameBits(got, want) {
					t.Fatalf("stencil %d at %v: gathered %v, per-point oracle %v", n, x, got, want)
				}
				ibm.Spread(l, x, F, area)
				oracleSpread(oracle, &st, F, area)
			}
			compareForces(t, l.Macros(), ref.Macros())
		})
	}
}

// The same for the workers' accumulators, with no block owned (the slab
// engines) and with an owner table (the cube engine): two workers
// alternate over the stencils, so both land in the same blocks; private
// buffers, stamps, owner-direct writes and the reduced field all match.
func TestSpreadAccumMatchesPerPointOracle(t *testing.T) {
	const stencils = 12000
	for _, tc := range couplingLayouts {
		for _, owned := range []bool{false, true} {
			name := tc.name + "/unowned"
			if owned {
				name = tc.name + "/owned"
			}
			t.Run(name, func(t *testing.T) {
				r := rand.New(rand.NewSource(22))
				l, ref := tc.make(), tc.make()
				randomize(r, l.Macros(), ref.Macros())
				_, e := l.BlockBox(0)
				blockLen := e[0] * e[1] * e[2]
				var owner []int
				if owned {
					owner = make([]int, len(l.Macros())/blockLen)
					for b := range owner {
						owner[b] = r.Intn(3) // worker 2 does not exist: some blocks are nobody's
					}
				}
				accs, refs := NewSpreadAccums(l, 2, owner), NewSpreadAccums(ref, 2, owner)
				for gen := 1; gen <= 2; gen++ {
					for tid := range accs {
						accs[tid].Begin(gen)
						refs[tid].Begin(gen)
					}
					for n, x := range couplingPositions(r, stencils/2, dimsOf(l), tc.k) {
						var st ibm.Stencil
						st.Compute(x)
						F, area := randomForce(r), r.Float64()
						ibm.Spread(accs[n%2], x, F, area)
						oracleSpread(accumPoints{refs[n%2]}, &st, F, area)
					}
					for tid := range accs {
						for b := range accs[tid].blocks {
							if accs[tid].stamp[b] != refs[tid].stamp[b] || len(accs[tid].blocks[b]) != len(refs[tid].blocks[b]) {
								t.Fatalf("gen %d worker %d block %d: stamp %d, %d slots; oracle stamp %d, %d slots", gen, tid, b,
									accs[tid].stamp[b], len(accs[tid].blocks[b]), refs[tid].stamp[b], len(refs[tid].blocks[b]))
							}
							for i, v := range accs[tid].blocks[b] {
								if !sameBits(v, refs[tid].blocks[b][i]) {
									t.Fatalf("gen %d worker %d block %d slot %d = %v, per-point oracle %v", gen, tid, b, i, v, refs[tid].blocks[b][i])
								}
							}
						}
					}
					compareForces(t, l.Macros(), ref.Macros())
					for b := 0; b < len(l.Macros())/blockLen; b++ {
						ReduceSpread(accs, l.Macros()[b*blockLen:(b+1)*blockLen], b, gen)
						ReduceSpread(refs, ref.Macros()[b*blockLen:(b+1)*blockLen], b, gen)
					}
					compareForces(t, l.Macros(), ref.Macros())
				}
			})
		}
	}
}

// Spreading conserves force and is the adjoint of interpolation on every
// layout — slab grids and cube layouts with k = 1, 4 and 8, through the
// layout contract — and through every accumulator: the layout's own
// coupling, and two workers' SpreadAccums with no block owned and with
// owned blocks, reduced. Σ_nodes f = Σ_j A·F_j, and ⟨S F, u⟩ = Σ_nodes f·u
// equals ⟨F, I u⟩ = Σ_j A·F_j·I(u)(X_j), both to round-off.
func TestCouplingConservesForceAndIsAdjoint(t *testing.T) {
	const fibers, area = 600, 0.37
	for _, tc := range couplingLayouts {
		for _, via := range []string{"layout", "unowned", "owned"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				r := rand.New(rand.NewSource(24))
				l := tc.make()
				m := l.Macros()
				for i := range m {
					m[i].Vel = [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
				}
				_, e := l.BlockBox(0)
				blockLen := e[0] * e[1] * e[2]
				var accs []*SpreadAccum
				if via != "layout" {
					var owner []int
					if via == "owned" {
						owner = make([]int, len(m)/blockLen)
						for b := range owner {
							owner[b] = r.Intn(3) // worker 2 does not exist: some blocks are nobody's
						}
					}
					accs = NewSpreadAccums(l, 2, owner)
					for _, a := range accs {
						a.Begin(1)
					}
				}
				dims := dimsOf(l)
				var want [3]float64
				var rhs, scale float64
				for j := 0; j < fibers; j++ {
					var x [3]float64
					for a := range x {
						x[a] = (r.Float64()*3 - 1) * float64(dims[a]) // seams and periodic images included
					}
					F := randomForce(r)
					var acc ibm.ForceAccumulator = l
					if accs != nil {
						acc = accs[j%2]
					}
					ibm.Spread(acc, x, F, area)
					u := ibm.Interpolate(l, x)
					for d := 0; d < 3; d++ {
						want[d] += area * F[d]
						rhs += area * F[d] * u[d]
						scale += area * math.Abs(F[d]) * (math.Abs(u[d]) + 1)
					}
				}
				for b := 0; accs != nil && b < len(m)/blockLen; b++ {
					ReduceSpread(accs, m[b*blockLen:(b+1)*blockLen], b, 1)
				}
				var got [3]float64
				var lhs float64
				for i := range m {
					for d := 0; d < 3; d++ {
						got[d] += m[i].Force[d]
						lhs += m[i].Force[d] * m[i].Vel[d]
					}
				}
				tol := 1e-12 * scale
				for d := 0; d < 3; d++ {
					if math.Abs(got[d]-want[d]) > tol {
						t.Errorf("Σ spread force[%d] = %.17g, Σ Lagrangian force %.17g", d, got[d], want[d])
					}
				}
				if math.Abs(lhs-rhs) > tol {
					t.Errorf("⟨S F, u⟩ = %.17g, ⟨F, I u⟩ = %.17g (tolerance %.3g)", lhs, rhs, tol)
				}
			})
		}
	}
}

// Two workers spreading at once — each through its own accumulator,
// owner-direct into its own blocks — then reducing disjoint blocks at
// once, leave bit for bit the field the same work leaves done serially:
// every destination has one writer per phase. Under -race this is the
// accumulate/reduce protocol's data-race check without an engine around
// it.
func TestSpreadAccumConcurrentWorkers(t *testing.T) {
	for _, tc := range couplingLayouts[3:5] {
		r := rand.New(rand.NewSource(23))
		l, ref := tc.make(), tc.make()
		randomize(r, l.Macros(), ref.Macros())
		_, e := l.BlockBox(0)
		blockLen := e[0] * e[1] * e[2]
		owner := make([]int, len(l.Macros())/blockLen)
		for b := range owner {
			owner[b] = b % 2
		}
		xs := couplingPositions(r, 4000, dimsOf(l), tc.k)
		F := randomForce(r)
		work := func(l Layout, accs []*SpreadAccum, tid int, spread bool) {
			if spread {
				accs[tid].Begin(1)
				for n := tid; n < len(xs); n += 2 {
					ibm.Spread(accs[tid], xs[n], F, 0.3)
				}
				return
			}
			for b := tid; b < len(owner); b += 2 {
				ReduceSpread(accs, l.Macros()[b*blockLen:(b+1)*blockLen], b, 1)
			}
		}
		accs, refs := NewSpreadAccums(l, 2, owner), NewSpreadAccums(ref, 2, owner)
		for _, spread := range []bool{true, false} {
			var wg sync.WaitGroup
			for tid := 0; tid < 2; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					work(l, accs, tid, spread)
				}(tid)
				work(ref, refs, tid, spread)
			}
			wg.Wait()
		}
		compareForces(t, l.Macros(), ref.Macros())
	}
}

// A lattice-aligned node's outer stencil layers carry exactly zero
// weight and are skipped, through every accumulator: 27 nodes receive
// force, not 64.
func TestLatticeAlignedSpreadTouches27(t *testing.T) {
	count := func(nodes []grid.Macro) (n int) {
		for i := range nodes {
			if nodes[i].Force != ([3]float64{}) {
				n++
			}
		}
		return n
	}
	x, F := [3]float64{5, 9, -2}, [3]float64{1, 1, 1}
	for _, tc := range couplingLayouts {
		if tc.k != 4 {
			continue // the 12×8×16 slab and cubes: room for 27 distinct nodes
		}
		l := tc.make()
		ibm.Spread(l, x, F, 1)
		if n := count(l.Macros()); n != 27 {
			t.Errorf("%s: %d nodes touched, want 27", tc.name, n)
		}
		l = tc.make()
		acc := NewSpreadAccums(l, 1, nil)[0]
		acc.Begin(1)
		ibm.Spread(acc, x, F, 1)
		n := 0
		for _, buf := range acc.blocks {
			for _, v := range buf {
				if v != ([3]float64{}) {
					n++
				}
			}
		}
		if n != 27 {
			t.Errorf("%s accumulator: %d slots touched, want 27", tc.name, n)
		}
	}
}

// A sheet with a non-finite node position steps without a panic or an
// out-of-range index (the watchdog, not a crash, ends such a run).
func TestStepSurvivesNonFinitePosition(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		sh := fiber.NewSheet(fiber.Params{NumFibers: 6, NodesPerFiber: 6, Width: 3, Height: 3,
			Origin: [3]float64{4, 2.5, 2.5}, Ks: 0.05, Kb: 0.001})
		sh.X[14][1] = bad
		s := MustNewSolver(Config{NX: 8, NY: 8, NZ: 8, Tau: 0.7, Sheet: sh})
		s.Run(3)
	}
}

// Kernels 4 and 8 over a whole sheet allocate nothing, through the
// layouts' couplings and through a worker's accumulator once its blocks
// exist.
func TestSpreadAndMoveSheetNodesDoNotAllocate(t *testing.T) {
	sh := fiber.NewSheet(fiber.Params{NumFibers: 12, NodesPerFiber: 12, Width: 5, Height: 5,
		Origin: [3]float64{6.3, 1.2, 9.7}, Ks: 0.05, Kb: 0.001})
	for i := range sh.Force {
		sh.Force[i] = [3]float64{1e-3, -2e-3, 5e-4}
	}
	for _, tc := range couplingLayouts {
		l := tc.make()
		acc := NewSpreadAccums(l, 2, nil)[1]
		acc.Begin(1)
		if n := testing.AllocsPerRun(5, func() {
			SpreadSheetNodes(l, sh, 0, sh.NumNodes())
			SpreadSheetNodes(acc, sh, 0, sh.NumNodes())
			MoveSheetNodes(l, sh, 0, sh.NumNodes())
		}); n != 0 {
			t.Errorf("%s: %v allocations per pass over the sheet, want 0", tc.name, n)
		}
	}
}
