package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// foldState returns a natural-phase array over l's nodes: every node's
// values random around the lattice weights, except that every 11th node
// holds −0 in all 19 slots and every 13th node 0 (zero density, where
// lattice.Moments returns a zero velocity).
func foldState(l *grid.Grid, seed int64) [][lattice.Q]float64 {
	r := rand.New(rand.NewSource(seed))
	df := make([][lattice.Q]float64, len(l.Macros()))
	for i := range df {
		for q := range df[i] {
			switch {
			case i%11 == 5:
				df[i][q] = math.Copysign(0, -1)
			case i%13 == 6:
				df[i][q] = 0
			default:
				df[i][q] = lattice.W[q] * (0.8 + 0.4*r.Float64())
			}
		}
	}
	return df
}

// TestAABlockFoldMatchesMomentsThenCollide pins AABlock's fold: with a
// non-nil fold, every node collides with lattice.Moments of the very
// values it holds under the fold force, then lattice.Collide — bit for
// bit what the record path does once the record holds those moments. On
// grids of every block extent, under periodic, bounce-back and
// moving-lid boundaries, from either phase, for a block outside the
// step's support (force = body, the records poisoned with NaN: the body
// must not read them) and inside it (the record's spread force, with ρ
// and u poisoned).
func TestAABlockFoldMatchesMomentsThenCollide(t *testing.T) {
	body := [3]float64{2e-5, -1e-5, 3e-5}
	nan := math.NaN()
	for _, sh := range shapes {
		dims := smallDims(sh)
		for _, bc := range conformanceBCs {
			for _, swapped := range []bool{false, true} {
				for _, support := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/swapped=%v/support=%v", sh.name, bc.name, swapped, support)
					t.Run(name, func(t *testing.T) {
						p := core.Problem{Tau: 0.8, BCX: bc.bcx, BCY: bc.bcy, BCZ: bc.bcz, LidVelocity: bc.lid}
						sbc := p.StreamBC(dims[0], dims[1], dims[2])
						ref, fold := twinLayout(t, dims, sh), twinLayout(t, dims, sh)
						sRef, sFold := core.NewStreamer(ref, sbc), core.NewStreamer(fold, sbc)
						natural := foldState(ref, 7)
						// The reference's records: Moments of each node's
						// present values, read in the natural phase.
						for i := range natural {
							m := &ref.Macros()[i]
							m.Rho = lattice.Moments(&natural[i], body, &m.Vel)
							if !support {
								m.Force = body
							}
							fold.Macros()[i] = grid.Macro{Vel: [3]float64{nan, nan, nan}, Rho: nan, Force: [3]float64{nan, nan, nan}}
							if support {
								fold.Macros()[i].Force = m.Force // the step's spread force
							}
						}
						for _, l := range []*grid.Grid{ref, fold} {
							copy(l.Dist(), natural)
							if swapped { // Canonicalize is an involution
								core.Canonicalize(core.NewStreamer(l, sbc), l.Dist())
							}
						}
						force := &body
						if support {
							force = nil
						}
						nb, _ := blocks(ref)
						for b := 0; b < nb; b++ {
							core.AABlock(sRef, ref.Dist(), b, p.Tau, swapped, nil, force, nil)
							core.AABlock(sFold, fold.Dist(), b, p.Tau, swapped, &body, force, nil)
						}
						for i := range ref.Dist() {
							for q := range ref.Dist()[i] {
								a, b := ref.Dist()[i][q], fold.Dist()[i][q]
								if math.Float64bits(a) != math.Float64bits(b) {
									t.Fatalf("node %d slot %d: folded %v (%#x), Moments then Collide %v (%#x)", i, q, b, math.Float64bits(b), a, math.Float64bits(a))
								}
							}
						}
					})
				}
			}
		}
	}
}

// The fold must cost no allocation either (TestCollideAndUpdateRange-
// DoNotAllocate holds the record path).
func TestAABlockFoldDoesNotAllocate(t *testing.T) {
	g := grid.New(16, 16, 16)
	body := [3]float64{1e-5, 0, 0}
	p := core.Problem{BCZ: core.BounceBack, LidVelocity: [3]float64{0.01, 0, 0}}
	st := core.NewStreamer(g, p.StreamBC(16, 16, 16))
	for _, swapped := range []bool{false, true} {
		if n := testing.AllocsPerRun(10, func() { core.AABlock(st, g.Dist(), 0, 0.7, swapped, &body, &body, nil) }); n != 0 {
			t.Errorf("folded AABlock from swapped=%v: %v allocations per run, want 0", swapped, n)
		}
	}
}

// TestShareDealsTheSupportEvenly: for every split of a few support sets
// — empty, one block, a dense band, scattered blocks, every block — the
// shares cover the set blocks exactly once, in index order, each a
// contiguous run of set blocks whose counts differ by at most one.
func TestShareDealsTheSupportEvenly(t *testing.T) {
	sets := map[string][]bool{}
	for name, idx := range map[string][]int{
		"empty": {}, "one": {9}, "band": {4, 5, 6, 7, 8, 9, 10}, "scattered": {0, 3, 4, 11, 15},
		"all": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	} {
		reach := make([]bool, 16)
		for _, b := range idx {
			reach[b] = true
		}
		sets[name] = reach
	}
	for name, reach := range sets {
		n := 0
		for _, r := range reach {
			if r {
				n++
			}
		}
		for parts := 1; parts <= 5; parts++ {
			var got []int
			prev := 0
			for i := 0; i < parts; i++ {
				lo, hi := core.Share(reach, parts, i)
				if lo < prev || hi < lo || hi > len(reach) {
					t.Fatalf("%s/%d parts: share %d is [%d, %d) after %d", name, parts, i, lo, hi, prev)
				}
				prev = hi
				c := 0
				for b := lo; b < hi; b++ {
					if reach[b] {
						got = append(got, b)
						c++
					}
				}
				if c != n/parts && c != (n+parts-1)/parts {
					t.Errorf("%s/%d parts: share %d holds %d of %d blocks", name, parts, i, c, n)
				}
			}
			if len(got) != n {
				t.Errorf("%s/%d parts: the shares hold %v, %d blocks in all, want %d", name, parts, got, len(got), n)
			}
		}
	}
}
