package crosscheck

import (
	"testing"
)

// FuzzGen drives the generator with arbitrary seeds and asserts every
// produced case is well-formed: positive dims and steps, a sheet layout
// that fits its box, and engine admission consistent with CubeDivisible.
func FuzzGen(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Add(int64(-1))
	f.Add(int64(1) << 62)
	f.Fuzz(func(t *testing.T, seed int64) {
		c := Gen(seed)
		cfg := c.Config
		if cfg.NX < 2 || cfg.NY < 2 || cfg.NZ < 2 {
			t.Fatalf("seed %d: degenerate grid %d×%d×%d", seed, cfg.NX, cfg.NY, cfg.NZ)
		}
		if c.Steps < 1 || c.CheckEvery < 1 {
			t.Fatalf("seed %d: degenerate schedule steps=%d every=%d", seed, c.Steps, c.CheckEvery)
		}
		if cfg.Tau == 0 && cfg.Viscosity <= 0 {
			t.Fatalf("seed %d: neither tau nor viscosity set", seed)
		}
		for i, sc := range cfg.Sheets {
			if sc.NumFibers < 2 || sc.NodesPerFiber < 2 {
				t.Fatalf("seed %d sheet %d: degenerate %d×%d", seed, i, sc.NumFibers, sc.NodesPerFiber)
			}
			// The 4×4×4 delta support must stay inside the box: 1.5 nodes
			// below every coordinate, 2.5 above the far extent.
			if sc.Origin[0] < 1.5 || sc.Origin[0] > float64(cfg.NX)-2.5 ||
				sc.Origin[1] < 1.5 || sc.Origin[1]+sc.Width > float64(cfg.NY)-2.5+1e-9 ||
				sc.Origin[2] < 1.5 || sc.Origin[2]+sc.Height > float64(cfg.NZ)-2.5+1e-9 {
				t.Fatalf("seed %d sheet %d: support leaves the box: origin=%v w=%g h=%g grid=%d×%d×%d",
					seed, i, sc.Origin, sc.Width, sc.Height, cfg.NX, cfg.NY, cfg.NZ)
			}
		}
		// Engine admission must match divisibility.
		for _, e := range Engines(c) {
			if e == EngineCube && !CubeDivisible(c) {
				t.Fatalf("seed %d: cube engine admitted on indivisible grid", seed)
			}
		}
	})
}

// FuzzCrossCheck is the native-fuzzing face of the differential
// harness: any seed the fuzzer invents becomes a full cross-engine run,
// capped at a few steps to keep iterations fast. A crash or divergence
// here is a real engine bug (or an oracle bug) with a replayable seed.
func FuzzCrossCheck(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	r := NewRunner()
	f.Fuzz(func(t *testing.T, seed int64) {
		c := Gen(seed)
		if c.Steps > 4 {
			c.Steps = 4
		}
		if res := r.Run(c); !res.OK {
			t.Fatalf("seed %d diverged (replay: go run ./cmd/lbmib-crosscheck -seed %d):\n%s",
				seed, seed, res.FailureSummary())
		}
	})
}
