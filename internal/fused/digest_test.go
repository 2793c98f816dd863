package fused

import (
	"math"
	"slices"
	"testing"

	"lbmib/internal/grid"
)

// TestDigestOnTeamMatchesSerial: core.InPlace.Digest on the fused
// engine's worker team — the array canonicalized on the team if the step
// left it swapped, stale records refreshed as each piece is digested —
// is the serial digest of Live's grid bit for bit, at 1–3 workers, after an odd and an even
// number of steps, and with a NaN seeded into the distributions and a
// record between steps, in the phase the step left.
func TestDigestOnTeamMatchesSerial(t *testing.T) {
	for threads := 1; threads <= 3; threads++ {
		var got [2][]uint64
		for i := range got {
			s := MustNewSolver(Config{Config: baseConfig(testSheet()), Threads: threads})
			d, err := grid.NewDigestGrid(16, 16, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			digest := func() {
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
			s.Step()
			s.Fluid.Dist()[700][9] = math.NaN()
			s.Fluid.Macros()[2100].Vel[2] = math.Inf(1)
			digest()
			if d.NonFinite == 0 {
				t.Fatalf("threads=%d: the seeded NaN went uncounted", threads)
			}
			s.Step()
			digest()
			s.Close()
		}
		if !slices.Equal(got[0], got[1]) {
			t.Errorf("threads=%d: the team's digest differs from the serial digest of Live's grid", threads)
		}
	}
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
