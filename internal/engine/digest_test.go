package engine

import (
	"math"
	"slices"
	"testing"

	"lbmib/internal/grid"
)

// TestDigestOnTeamMatchesSerial: the digest of a state is the same bits
// by all three of its paths — core.InPlace.Digest on the engine's worker
// team (the array canonicalized on the team if the step left it swapped,
// then one contiguous range of blocks per worker), the one-goroutine
// digest of a twin's Live grid (grid.DigestGrid.Fill), and the collide
// sweep of a third twin's next step (core.InPlace.Observe), which steps
// from whichever phase the last step left — after an odd and an even
// number of steps, and with a NaN seeded into one record's velocity and
// an infinity into one distribution between steps, in the phase the step
// left, before and after a step spreads them. The OpenMP schedule runs at
// 1–4 workers and at 5 and 6, more than the 16³ grid's four tile rows;
// the cube schedule at 1–4 and on the odd meshes 3×1×1 and 3×3×1 beside
// 3×2×1. Live canonicalizes the second twin, not the digest under test,
// so a skipped or partial canonicalization shows; the sweep twin never
// canonicalizes.
func TestDigestOnTeamMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name    string
		threads []int
		new     func(threads int) (*Solver, error)
		nan     func(m *grid.Macro)
		inf     float64
	}{
		{"omp", []int{1, 2, 3, 4, 5, 6},
			func(threads int) (*Solver, error) { return NewOpenMP(baseConfig(testSheet()), threads) },
			func(m *grid.Macro) { m.Vel[1] = math.NaN() }, math.Inf(-1)},
		{"cube", []int{1, 2, 3, 4, 6, 9},
			func(threads int) (*Solver, error) { return NewCube(baseConfig(testSheet()), 4, threads) },
			func(m *grid.Macro) { m.Rho = math.NaN() }, math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, threads := range tc.threads {
				var twins [3]*Solver
				var digests [3]*grid.DigestGrid
				for i := range twins {
					s, err := tc.new(threads)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					s.Run(3)
					twins[i], digests[i] = s, newDigest(t)
				}
				// point digests the twins' common state by the three
				// paths and steps each once.
				point := func(what string) {
					t.Helper()
					a, b, c := twins[0], twins[1], twins[2]
					if err := a.Digest(digests[0]); err != nil {
						t.Fatal(err)
					}
					if err := digests[1].Fill(b.Live()); err != nil {
						t.Fatal(err)
					}
					if err := c.Observe(digests[2]); err != nil {
						t.Fatal(err)
					}
					for _, s := range twins {
						s.Step()
					}
					want := digestBits(digests[1])
					if !slices.Equal(digestBits(digests[0]), want) {
						t.Errorf("threads=%d, %s: the team's digest differs from the serial digest of Live's grid", threads, what)
					}
					if !slices.Equal(digestBits(digests[2]), want) {
						t.Errorf("threads=%d, %s: the sweep's digest differs from the serial digest of Live's grid", threads, what)
					}
				}
				point("3 steps")
				point("4 steps")
				for _, s := range twins {
					tc.nan(s.Fluid.At(9, 3, 14))
					s.Fluid.Dist()[s.Fluid.Idx(2, 15, 7)][5] = tc.inf
				}
				point("seeded")
				if digests[1].NonFinite == 0 {
					t.Fatalf("threads=%d: the seeded digest counts no non-finite node", threads)
				}
				point("seeded, one step on")
			}
		})
	}
}

func newDigest(t *testing.T) *grid.DigestGrid {
	t.Helper()
	d, err := grid.NewDigestGrid(16, 16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// digestBits is every field of a digest, floats by their bits.
func digestBits(d *grid.DigestGrid) []uint64 {
	var b []uint64
	for _, td := range d.Tiles {
		b = append(b, math.Float64bits(td.Mass), math.Float64bits(td.MaxVel2), uint64(td.NonFinite))
	}
	b = append(b, math.Float64bits(d.Mass), math.Float64bits(d.MaxVel), uint64(d.NonFinite), math.Float64bits(d.BadRho))
	for a := 0; a < 3; a++ {
		b = append(b, uint64(d.MaxVelCell[a]), uint64(d.BadCell[a]), math.Float64bits(d.BadVel[a]))
	}
	return b
}
