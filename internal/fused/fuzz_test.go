package fused_test

import (
	"math"
	"testing"

	"lbmib/internal/core"
	"lbmib/internal/fused"
	"lbmib/internal/lattice"
)

// FuzzFusedStep drives the fused engine with arbitrary tiny
// configurations — degenerate grid shapes, any boundary combination,
// lid and body-force drivers, both storage modes, thread counts beyond
// NX — and asserts five steps never panic and never produce a
// non-finite field. Small boxes are where the wavefront's edge cases
// live: single-plane chunks, chunks smaller than the two-plane lag,
// wrap-around neighbors that are also the node itself.
func FuzzFusedStep(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), uint8(0), false, uint8(1), uint8(70))
	f.Add(uint8(3), uint8(5), uint8(2), uint8(7), true, uint8(4), uint8(120))
	f.Add(uint8(8), uint8(4), uint8(6), uint8(5), false, uint8(9), uint8(55))
	f.Fuzz(func(t *testing.T, bx, by, bz, bits uint8, f32 bool, threads, tau100 uint8) {
		dim := func(b uint8) int { return 2 + int(b)%7 } // 2..8
		bc := func(bit uint8) core.BC {
			if bits&bit != 0 {
				return core.BounceBack
			}
			return core.Periodic
		}
		cfg := fused.Config{
			Config: core.Config{
				NX: dim(bx), NY: dim(by), NZ: dim(bz),
				Tau: 0.55 + float64(tau100%100)*0.01, // 0.55..1.54
				BCX: bc(1), BCY: bc(2), BCZ: bc(4),
			},
			Threads: 1 + int(threads)%8,
			Float32: f32,
		}
		if bits&8 != 0 {
			cfg.BodyForce = [3]float64{2e-5, -1e-5, 1e-5}
		}
		if bits&16 != 0 && cfg.BCZ == core.BounceBack {
			cfg.LidVelocity = [3]float64{0.03, -0.01, 0}
		}
		s, err := fused.NewSolver(cfg)
		if err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
		s.Run(5)
		g := s.Live()
		df := g.Dist(g.Cur())
		for i := range g.Macros() {
			n := &g.Macros()[i]
			for q := 0; q < lattice.Q; q++ {
				if v := df[i][q]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("node %d slot %d non-finite: %g", i, q, v)
				}
			}
			if math.IsNaN(n.Rho) || math.IsInf(n.Rho, 0) ||
				math.IsNaN(n.Vel[0]) || math.IsNaN(n.Vel[1]) || math.IsNaN(n.Vel[2]) {
				t.Fatalf("node %d non-finite moments ρ=%g u=%v", i, n.Rho, n.Vel)
			}
		}
	})
}
