package engine

import (
	"math"
	"slices"
	"testing"

	"lbmib/internal/grid"
)

// TestDigestOnTeamMatchesSerial: core.InPlace.Digest on the engine's
// worker team (the array canonicalized on the team if the step left it
// swapped, then one contiguous range of tile rows or cubes per worker) is
// the one-goroutine digest of a twin solver's Live grid bit for bit, in
// both phases (after an odd and an even number of steps), and with a NaN
// seeded between steps, in the phase the step left, before and after a
// step spreads it. The OpenMP schedule runs at 1–4 workers and at 5 and
// 6, more than the 16³ grid's four tile rows; the cube schedule at 1–4
// and on the odd meshes 3×1×1 and 3×3×1 beside 3×2×1. The twin's grid is
// canonicalized by Live, not by the digest under test, so a skipped or
// partial canonicalization shows.
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
				var got [2][]uint64
				for i := range got {
					s, err := tc.new(threads)
					if err != nil {
						t.Fatal(err)
					}
					d := newDigest(t)
					digest := func() {
						t.Helper()
						if i == 0 {
							err = s.Digest(d)
						} else {
							err = d.Fill(s.Live())
						}
						if err != nil {
							t.Fatal(err)
						}
						got[i] = append(got[i], digestBits(d)...)
					}
					s.Run(3)
					digest()
					s.Step()
					digest()
					tc.nan(s.Fluid.At(9, 3, 14))
					s.Fluid.Dist()[s.Fluid.Idx(2, 15, 7)][5] = tc.inf
					digest()
					if d.NonFinite != 2 {
						t.Fatalf("threads=%d: seeded digest counts %d non-finite nodes, want 2", threads, d.NonFinite)
					}
					s.Step()
					digest()
					s.Close()
				}
				if !slices.Equal(got[0], got[1]) {
					t.Errorf("threads=%d: the team's digest differs from the serial digest of Live's grid", threads)
				}
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
