package core

import (
	"math"
	"math/rand"
	"testing"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/ibm"
)

// The per-stencil coupling bodies (grid.Coupling behind every grid,
// and SpreadBox over it) are pinned, bit for bit, to the per-point API
// they replaced. The oracle below is that API as it stood: one
// interface call per stencil point, three WrapIndex moduli and an Idx per
// call.

type pointField interface {
	addForce(x, y, z int, f [3]float64)
	velocityAt(x, y, z int) [3]float64
}

// layoutPoints is grid.(*Grid).AddForce/VelocityAt and
// cube.(*Layout).AddForce/VelocityAt, which had one body.
type layoutPoints struct{ l *grid.Grid }

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

var couplingLayouts = []struct {
	name string
	k    int // block edge along the axes that have one, for seam placement
	make func() *grid.Grid
}{
	{"slab-12x8x16", 4, func() *grid.Grid { return grid.New(12, 8, 16) }},
	{"slab-1x2x3", 1, func() *grid.Grid { return grid.New(1, 2, 3) }},
	{"slab-3x1x2", 1, func() *grid.Grid { return grid.New(3, 1, 2) }},
	{"cube4-12x8x16", 4, func() *grid.Grid { return mustBlocked(12, 8, 16, 4, 4, 4) }},
	{"cube8-16x8x24", 8, func() *grid.Grid { return mustBlocked(16, 8, 24, 8, 8, 8) }},
	{"cube1-2x3x1", 1, func() *grid.Grid { return mustBlocked(2, 3, 1, 1, 1, 1) }},
	// Cubes of 2: most stencil windows cross a cube face on every axis.
	{"cube2-8x6x10", 2, func() *grid.Grid { return mustBlocked(8, 6, 10, 2, 2, 2) }},
	// A pencil: blocks span z whole and cut x and y.
	{"pencil4x4-12x8x16", 4, func() *grid.Grid { return mustBlocked(12, 8, 16, 4, 4, 16) }},
}

func mustBlocked(nx, ny, nz, bx, by, bz int) *grid.Grid {
	g, err := grid.NewBlocked(nx, ny, nz, [3]int{bx, by, bz})
	if err != nil {
		panic(err)
	}
	return g
}

func dimsOf(l *grid.Grid) [3]int {
	nx, ny, nz := l.Dims()
	return [3]int{nx, ny, nz}
}

// randomBoxes partitions a domain of the given dims into boxes, listed in
// random order: each axis is cut into spans at random points, and the
// boxes are the spans' products.
func randomBoxes(r *rand.Rand, dims [3]int) []grid.Box {
	var cuts [3][]int
	for a, n := range dims {
		cuts[a] = []int{0}
		for c := 1; c < n; c++ {
			if r.Intn(n) < 2 {
				cuts[a] = append(cuts[a], c)
			}
		}
		cuts[a] = append(cuts[a], n)
	}
	var boxes []grid.Box
	for i := 1; i < len(cuts[0]); i++ {
		for j := 1; j < len(cuts[1]); j++ {
			for k := 1; k < len(cuts[2]); k++ {
				boxes = append(boxes, grid.Box{
					Lo: [3]int{cuts[0][i-1], cuts[1][j-1], cuts[2][k-1]},
					Hi: [3]int{cuts[0][i], cuts[1][j], cuts[2][k]},
				})
			}
		}
	}
	r.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
	return boxes
}

// sheetsAt returns fiber nodes at xs carrying forces fs, split in order
// over three sheets of different area elements.
func sheetsAt(xs, fs [][3]float64) []*fiber.Sheet {
	var sheets []*fiber.Sheet
	for part := 0; part < 3; part++ {
		lo, hi := part*len(xs)/3, (part+1)*len(xs)/3
		if lo == hi {
			continue
		}
		sh := fiber.NewSheet(fiber.Params{NumFibers: hi - lo, NodesPerFiber: 1,
			Width: 1.3 * float64(hi-lo), Height: 0.3 + 0.2*float64(part)})
		copy(sh.X, xs[lo:hi])
		copy(sh.Force, fs[lo:hi])
		sheets = append(sheets, sh)
	}
	return sheets
}

// oracleSpreadSheets is kernel 4 through the per-point oracle: every
// fiber node of every sheet in order.
func oracleSpreadSheets(acc pointField, sheets []*fiber.Sheet) {
	for _, sh := range sheets {
		for i, x := range sh.X {
			var st ibm.Stencil
			st.Compute(x)
			oracleSpread(acc, &st, sh.Force[i], sh.AreaElement())
		}
	}
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
// field through both layouts equal the per-point oracle bit for bit —
// the gather both through the layout's sampler and through the
// coupling's own Interpolate, kernel 8's.
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
				want := oracleInterpolate(oracle, &st)
				if got := ibm.Interpolate(l, x); !sameBits(got, want) {
					t.Fatalf("stencil %d at %v: gathered %v, per-point oracle %v", n, x, got, want)
				}
				if got := l.Coupling.Interpolate(x); !sameBits(got, want) {
					t.Fatalf("stencil %d at %v: kernel 8 gathered %v, per-point oracle %v", n, x, got, want)
				}
				ibm.Spread(l, x, F, area)
				oracleSpread(oracle, &st, F, area)
				if n%32 == 31 {
					// Fresh fields bring back the −0 components the
					// spreads so far have overwritten, so a zero-weight
					// point left unskipped keeps showing.
					compareForces(t, l.Macros(), ref.Macros())
					randomize(r, l.Macros(), ref.Macros())
				}
			}
			compareForces(t, l.Macros(), ref.Macros())
		})
	}
}

// Spread accumulation through the box body equals the per-point oracle
// bit for bit: fiber nodes at the same kind of positions, spread into a
// random force field over the whole domain ("unowned", Sequential's
// kernel 4) or box by box over a random partition of it ("owned", a
// parallel engine's), leave the field the oracle leaves spreading them
// node by node — each node receives its contributions from its own box
// alone, in the oracle's order. The 12 000 fiber nodes go in chunks of
// 48, compared after each; every other chunk starts from a fresh random
// field, so the −0 components that an unskipped zero weight would flip
// keep showing, and the chunk after it checks that the body adds to
// what the first left.
func TestSpreadAccumMatchesPerPointOracle(t *testing.T) {
	const stencils, chunk = 12000, 48
	for _, tc := range couplingLayouts {
		for _, owned := range []bool{false, true} {
			name := tc.name + "/unowned"
			if owned {
				name = tc.name + "/owned"
			}
			t.Run(name, func(t *testing.T) {
				r := rand.New(rand.NewSource(22))
				l, ref := tc.make(), tc.make()
				c := l.Coupling
				xs := couplingPositions(r, stencils, dimsOf(l), tc.k)
				for lo := 0; lo < len(xs); lo += chunk {
					if lo%(2*chunk) == 0 {
						randomize(r, l.Macros(), ref.Macros())
					}
					fs := make([][3]float64, chunk)
					for i := range fs {
						fs[i] = randomForce(r)
					}
					sheets := sheetsAt(xs[lo:lo+chunk], fs)
					if owned {
						for _, b := range randomBoxes(r, dimsOf(l)) {
							SpreadBox(c, sheets, b, nil)
						}
					} else {
						SpreadBox(c, sheets, c.Whole(), nil)
					}
					oracleSpreadSheets(layoutPoints{ref}, sheets)
					compareForces(t, l.Macros(), ref.Macros())
				}
			})
		}
	}
}

// Spreading conserves force and is the adjoint of interpolation on every
// block extent — slab grids, cubes with k = 1, 2, 4 and 8, and a pencil —
// and through every spreading path: the layout's own
// coupling per stencil ("layout"), the box body over the whole domain
// ("unowned", Sequential's kernel 4), and the box body over the owned
// boxes of a random partition ("owned", a parallel engine's).
// Σ_nodes f = Σ_j A·F_j, and ⟨S F, u⟩ = Σ_nodes f·u equals
// ⟨F, I u⟩ = Σ_j A·F_j·I(u)(X_j), both to round-off.
func TestCouplingConservesForceAndIsAdjoint(t *testing.T) {
	const fibers = 600
	for _, tc := range couplingLayouts {
		for _, via := range []string{"layout", "unowned", "owned"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				r := rand.New(rand.NewSource(24))
				l := tc.make()
				m := l.Macros()
				for i := range m {
					m[i].Vel = [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
				}
				dims := dimsOf(l)
				xs, fs := make([][3]float64, fibers), make([][3]float64, fibers)
				for j := range xs {
					for a := range xs[j] {
						xs[j][a] = (r.Float64()*3 - 1) * float64(dims[a]) // seams and periodic images included
					}
					fs[j] = randomForce(r)
				}
				sheets := sheetsAt(xs, fs)
				var want [3]float64
				var rhs, scale float64
				for _, sh := range sheets {
					area := sh.AreaElement()
					for j, x := range sh.X {
						F, u := sh.Force[j], ibm.Interpolate(l, x)
						for d := 0; d < 3; d++ {
							want[d] += area * F[d]
							rhs += area * F[d] * u[d]
							scale += area * math.Abs(F[d]) * (math.Abs(u[d]) + 1)
						}
					}
				}
				c := l.Coupling
				switch via {
				case "layout":
					for _, sh := range sheets {
						for j, x := range sh.X {
							ibm.Spread(l, x, sh.Force[j], sh.AreaElement())
						}
					}
				case "unowned":
					SpreadBox(c, sheets, c.Whole(), nil)
				case "owned":
					for _, b := range randomBoxes(r, dims) {
						SpreadBox(c, sheets, b, nil)
					}
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

// A lattice-aligned node's outer stencil layers carry exactly zero
// weight and are skipped, through the layout's coupling and the box body:
// 27 nodes receive force, not 64.
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
		c := l.Coupling
		SpreadBox(c, sheetsAt([][3]float64{x}, [][3]float64{F}), c.Whole(), nil)
		if n := count(l.Macros()); n != 27 {
			t.Errorf("%s box body: %d nodes touched, want 27", tc.name, n)
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

// Kernels 4 and 8 over a whole sheet allocate nothing: the box body over
// the whole domain and over part of it, and the gather.
func TestSpreadAndMoveSheetNodesDoNotAllocate(t *testing.T) {
	sh := fiber.NewSheet(fiber.Params{NumFibers: 12, NodesPerFiber: 12, Width: 5, Height: 5,
		Origin: [3]float64{6.3, 1.2, 9.7}, Ks: 0.05, Kb: 0.001})
	for i := range sh.Force {
		sh.Force[i] = [3]float64{1e-3, -2e-3, 5e-4}
	}
	sheets := []*fiber.Sheet{sh}
	for _, tc := range couplingLayouts {
		l := tc.make()
		c := l.Coupling
		part := c.Whole()
		part.Hi[0] = (part.Hi[0] + 1) / 2
		if n := testing.AllocsPerRun(5, func() {
			SpreadBox(c, sheets, c.Whole(), nil)
			SpreadBox(c, sheets, part, nil)
			MoveSheetNodes(c, sh, 0, sh.NumNodes())
		}); n != 0 {
			t.Errorf("%s: %v allocations per pass over the sheet, want 0", tc.name, n)
		}
	}
}

// SpreadBox with a support set marks exactly the blocks that hold a point
// of some fiber node's stencil inside the box (grid.Marker), on every
// layout and box of a random partition, whatever the stencil's weights:
// kernel 8 gathers from those points, so a block missed here would be
// read stale, and one marked needlessly costs a moments pass. The
// positions include seams, block faces, far images and non-finite
// coordinates (couplingPositions).
func TestSpreadBoxMarksStencilBlocks(t *testing.T) {
	const stencils, chunk = 2400, 40
	for _, tc := range couplingLayouts {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(23))
			l := tc.make()
			c, dims := l.Coupling, dimsOf(l)
			_, e := l.BlockBox(0)
			n := e[0] * e[1] * e[2]
			nb := len(l.Macros()) / n
			xs := couplingPositions(r, stencils, dims, tc.k)
			for lo := 0; lo < len(xs); lo += chunk {
				sheets := sheetsAt(xs[lo:lo+chunk], make([][3]float64, chunk))
				for _, b := range randomBoxes(r, dims) {
					got, want := make([]bool, nb), make([]bool, nb)
					SpreadBox(c, sheets, b, got)
					for _, x := range xs[lo : lo+chunk] {
						var p [3][ibm.SupportWidth]int
						for a := range p {
							for i := range p[a] {
								p[a][i] = grid.WrapIndex(ibm.StencilBase(x[a])+i, dims[a])
							}
						}
						for _, px := range p[0] {
							for _, py := range p[1] {
								for _, pz := range p[2] {
									if q := [3]int{px, py, pz}; inBox(q, b) {
										want[l.Idx(px, py, pz)/n] = true
									}
								}
							}
						}
					}
					for blk := range want {
						if got[blk] != want[blk] {
							t.Fatalf("box %+v, fiber nodes %d..%d: block %d marked %v, its stencil points say %v", b, lo, lo+chunk, blk, got[blk], want[blk])
						}
					}
				}
			}
		})
	}
}

func inBox(p [3]int, b grid.Box) bool {
	for a := range p {
		if p[a] < b.Lo[a] || p[a] >= b.Hi[a] {
			return false
		}
	}
	return true
}
