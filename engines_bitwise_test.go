package lbmib

import "testing"

// denseConfig is a crowded variant of sampledConfig: five sheets, each
// fastened at its center so the body force bends it into real elastic
// forces, placed so that their stencils overlap pairwise and straddle
// the edges the engines partition the fluid along — slab edges at 1–8
// threads, the cube edges of k = 4 and the cube mesh's box edges — and
// the periodic seam on every axis.
func denseConfig(e sampledEngine, threads int) Config {
	sheet := func(x, y, z float64) *SheetConfig {
		return &SheetConfig{
			NumFibers: 10, NodesPerFiber: 10, Width: 7.5, Height: 7.5,
			Origin: [3]float64{x, y, z}, Ks: 0.05, Kb: 0.001, FixedRadius: 1.5,
		}
	}
	return Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{2e-4, 1e-4, 0},
		Sheets: []*SheetConfig{
			sheet(15.4, 12.3, 13.1), sheet(15.8, 9.7, 2.6), // across the x seam, and y and z ones
			sheet(7.6, 1.2, 6.9), sheet(8.3, 5.5, 10.4), // across x = 8: halves, quarters, cubes
			sheet(5.7, 13.8, 14.2), // across x = 6: thirds
		},
		Solver: e.kind, Threads: threads, CubeSize: 4,
	}
}

// Every engine is one trajectory at every thread count: with sheets,
// each engine's state after 20 and 21 steps is bit for bit Sequential's
// at 1, 2, 3 and 8 threads. Spreading is where threads could reorder
// floating-point sums; its owners add in the reference's order
// (core.SpreadBox).
func TestEnginesBitwiseAtAnyThreadCount(t *testing.T) {
	problems := []struct {
		name string
		cfg  func(sampledEngine, int) Config
	}{{"sheet", sampledConfig}, {"dense", denseConfig}}
	hashes := func(cfg Config) [2]string {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Run(20)
		h := [2]string{stateHash(t, s)}
		s.Step()
		h[1] = stateHash(t, s)
		return h
	}
	for _, p := range problems {
		want := hashes(p.cfg(sampledEngines[0], 1))
		for _, e := range sampledEngines {
			for _, threads := range []int{1, 2, 3, 8} {
				if e.kind == Sequential {
					continue // the reference itself
				}
				if got := hashes(p.cfg(e, threads)); got != want {
					t.Errorf("%s/%s/%dt: %q after 20 and 21 steps, want sequential's %q",
						p.name, e.name, threads, got, want)
				}
			}
		}
	}
}
