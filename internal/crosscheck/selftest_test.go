package crosscheck

import (
	"math"
	"strings"
	"testing"

	"lbmib"
	"lbmib/internal/flightrec"
	"lbmib/internal/fused"
	"lbmib/internal/omp"
)

// injectFault installs the canonical seeded bug: after every omp step,
// node 0's live distributions are overwritten with its z-neighbor's — a
// stand-in for an off-by-one indexing error in one engine. It is a
// no-op on a field that is uniform along z, which is why the self-test
// picks a case with a z-gradient.
func injectFault(t *testing.T) {
	t.Helper()
	omp.FaultHook = func(s *omp.Solver) {
		df := s.Fluid.Dist(s.Fluid.Cur())
		df[0] = df[1]
	}
	t.Cleanup(func() { omp.FaultHook = nil })
}

// faultSensitiveSeed returns a seed whose generated case develops a
// gradient along z between the first two nodes — a no-slip z boundary
// plus an in-plane driver — so the injected neighbor-copy fault cannot
// hide in a uniform field.
func faultSensitiveSeed(t *testing.T) int64 {
	t.Helper()
	for seed := int64(0); seed < 64; seed++ {
		cfg := Gen(seed).Config
		driven := math.Abs(cfg.BodyForce[0]) > 1e-6 || math.Abs(cfg.BodyForce[1]) > 1e-6 ||
			cfg.LidVelocity != [3]float64{}
		if cfg.BoundaryZ == lbmib.NoSlip && driven {
			return seed
		}
	}
	t.Fatal("no fault-sensitive seed in 0..63; loosen the generator scan")
	return -1
}

// TestInjectedFaultDetected is the harness's sensitivity proof: with an
// off-by-one perturbation wired into the omp engine, the differential
// oracles must flag omp (and only report a divergence while the hook is
// installed — the same seed must pass clean).
func TestInjectedFaultDetected(t *testing.T) {
	seed := faultSensitiveSeed(t)
	r := NewRunner()

	if res := r.Run(Gen(seed)); !res.OK {
		t.Fatalf("seed %d must pass without the fault, got:\n%s", seed, res.FailureSummary())
	}

	injectFault(t)
	res := r.Run(Gen(seed))
	if res.OK {
		t.Fatalf("seed %d passed with an injected off-by-one in the omp engine; the harness is blind", seed)
	}
	flagged := false
	for _, er := range res.Engines {
		if er.Engine == string(EngineOMP) && len(er.Failures) > 0 {
			flagged = true
		}
		// The fused engine embeds the omp solver but drives its own Step,
		// which never calls omp.FaultHook: it must stay clean.
		if er.Engine == string(EngineFused) && len(er.Failures) > 0 {
			t.Errorf("fused engine flagged but the fault lives in omp:\n%s", strings.Join(er.Failures, "\n"))
		}
	}
	// The fault may also surface through the omp checkpoint round-trip on
	// indivisible grids; the per-engine report is the primary signal.
	if !flagged && len(res.Failures) == 0 {
		t.Errorf("divergence reported but omp not named:\n%s", res.FailureSummary())
	}
	t.Logf("fault detected at seed %d:\n%s", seed, res.FailureSummary())
}

// TestInjectedFusedFaultDetected repeats the sensitivity proof for the
// fused engine: a streaming-off-by-one stand-in (node 0's live
// distributions replaced by node 1's after every fused step, in whichever
// storage mode is active) must be flagged on the fused engines and only
// there — the float64 engines keep agreeing with the reference.
func TestInjectedFusedFaultDetected(t *testing.T) {
	seed := faultSensitiveSeed(t)
	r := NewRunner()

	if res := r.Run(Gen(seed)); !res.OK {
		t.Fatalf("seed %d must pass without the fault, got:\n%s", seed, res.FailureSummary())
	}

	fused.FaultHook = func(s *fused.Solver) { s.CopyNodeDist(0, 1) }
	t.Cleanup(func() { fused.FaultHook = nil })

	res := r.Run(Gen(seed))
	if res.OK {
		t.Fatalf("seed %d passed with an injected off-by-one in the fused engine; the harness is blind", seed)
	}
	flagged := false
	for _, er := range res.Engines {
		switch er.Engine {
		case string(EngineFused), string(EngineFusedF32):
			if len(er.Failures) > 0 {
				flagged = true
			}
		case string(EngineOMP):
			if len(er.Failures) > 0 {
				t.Errorf("%s engine flagged but the fault lives in fused:\n%s",
					er.Engine, strings.Join(er.Failures, "\n"))
			}
		}
	}
	// The fused checkpoint round-trip also runs under the hook on both
	// halves, so it stays on-trajectory; the per-engine report is the
	// primary signal.
	if !flagged && len(res.Failures) == 0 {
		t.Errorf("divergence reported but fused not named:\n%s", res.FailureSummary())
	}
	t.Logf("fused fault detected at seed %d:\n%s", seed, res.FailureSummary())
}

// TestMinimizeShrinksFailingCase runs the greedy minimizer under the
// injected fault and checks it emits a still-failing, no-larger case.
func TestMinimizeShrinksFailingCase(t *testing.T) {
	if testing.Short() {
		t.Skip("minimizer reruns the oracle suite many times")
	}
	seed := faultSensitiveSeed(t)
	injectFault(t)
	r := NewRunner()
	orig := Gen(seed)
	min := r.Minimize(orig)
	if res := r.Run(min); res.OK {
		t.Fatalf("minimized case no longer fails under the fault")
	}
	if min.Steps > orig.Steps || len(min.Config.Sheets) > len(orig.Config.Sheets) {
		t.Errorf("minimized case grew: steps %d→%d, sheets %d→%d",
			orig.Steps, min.Steps, len(orig.Config.Sheets), len(min.Config.Sheets))
	}
	t.Logf("minimized: steps %d→%d, sheets %d→%d, grid %d×%d×%d → %d×%d×%d",
		orig.Steps, min.Steps, len(orig.Config.Sheets), len(min.Config.Sheets),
		orig.Config.NX, orig.Config.NY, orig.Config.NZ,
		min.Config.NX, min.Config.NY, min.Config.NZ)
}

// TestDivergenceWritesFlightRecBundle checks the forensics hook: with a
// FlightRecDir set, a diverging engine leaves a readable post-mortem
// bundle (reason "crosscheck") and the report names its directory.
func TestDivergenceWritesFlightRecBundle(t *testing.T) {
	seed := faultSensitiveSeed(t)
	injectFault(t)
	r := NewRunner()
	r.FlightRecDir = t.TempDir()
	res := r.Run(Gen(seed))
	if res.OK {
		t.Fatal("injected fault not detected")
	}
	var bundles int
	for _, er := range res.Engines {
		if len(er.Failures) == 0 {
			continue
		}
		if er.Bundle == "" {
			t.Errorf("diverged engine %s reported no bundle", er.Engine)
			continue
		}
		b, err := flightrec.ReadBundle(er.Bundle)
		if err != nil {
			t.Errorf("bundle for %s unreadable: %v", er.Engine, err)
			continue
		}
		if b.Manifest.Reason != "crosscheck" {
			t.Errorf("bundle reason = %q, want crosscheck", b.Manifest.Reason)
		}
		bundles++
	}
	if bundles == 0 {
		t.Fatal("no engine produced a post-mortem bundle")
	}
}
