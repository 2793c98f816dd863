// Tests for per-step sampling: a Watchdog, a LogWriter and a flight
// recorder read one digest of the engine's live layout per step, which
// costs no allocation and leaves the simulated state bit for bit as an
// unobserved run leaves it.
package lbmib

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"lbmib/internal/flightrec"
	"lbmib/internal/telemetry"
)

// sampledEngine is one engine row of the sampling tests.
type sampledEngine struct {
	name    string
	kind    SolverKind
	float32 bool
}

var sampledEngines = []sampledEngine{
	{"sequential", Sequential, false},
	{"omp", OpenMP, false},
	{"cube", CubeBased, false},
	{"taskflow", TaskScheduled, false},
	{"fused", Fused, false},
	{"fused-f32", Fused, true},
}

func sampledConfig(e sampledEngine, threads int) Config {
	return Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    e.kind, Threads: threads, CubeSize: 4, Float32: e.float32,
	}
}

// TestObservedStepSamplesLiveLayout: a Watchdog-only Step allocates
// exactly what a plain Step does, on every engine. Sampling by
// snapshot allocated a fresh slab grid per step on the cube engines.
func TestObservedStepSamplesLiveLayout(t *testing.T) {
	for _, e := range sampledEngines {
		t.Run(e.name, func(t *testing.T) {
			cfg := sampledConfig(e, 2)
			plain, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			cfg.Watchdog = telemetry.NewWatchdog(telemetry.WatchdogConfig{})
			watched, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer watched.Close()
			plain.Run(2)
			watched.Run(2) // the watchdog's first check allocates its reference tiles
			want := testing.AllocsPerRun(5, plain.Step)
			if got := testing.AllocsPerRun(5, watched.Step); got != want {
				t.Errorf("Watchdog-only Step allocates %v objects, plain Step %v", got, want)
			}
			if err := watched.Health(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// stateHash is the SHA-256 of a run's state: ρ, u and the present
// distributions of every fluid node, then every sheet's node positions.
func stateHash(t *testing.T, s *Simulation) string {
	t.Helper()
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	g := s.FluidSnapshot()
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, v := range n.DF {
			put(v)
		}
		put(n.Rho)
		for _, v := range n.Vel {
			put(v)
		}
	}
	for i := 0; i < s.NumSheets(); i++ {
		xs, err := s.SheetPositionsAt(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			put(x[0])
			put(x[1])
			put(x[2])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parentStateHashes are stateHash after 20 and 21 unobserved steps,
// recorded on linux/amd64 at the commit before sampling moved onto the
// digest. Engine arithmetic is unchanged since, so every observed run
// must still reproduce them; a change that moves bits on purpose
// re-records them from the failure messages.
var parentStateHashes = map[string]string{
	"sequential/1t/20": "011120852c058eade09b6c28ba22829284957be5e05f58ccd74807ee74794339",
	"sequential/1t/21": "29421b7945dcedc0be7fe39b23bdf1e6118c71b2bc86c48961e05d082cdd4e0f",
	"sequential/2t/20": "011120852c058eade09b6c28ba22829284957be5e05f58ccd74807ee74794339",
	"sequential/2t/21": "29421b7945dcedc0be7fe39b23bdf1e6118c71b2bc86c48961e05d082cdd4e0f",
	"omp/1t/20":        "011120852c058eade09b6c28ba22829284957be5e05f58ccd74807ee74794339",
	"omp/1t/21":        "29421b7945dcedc0be7fe39b23bdf1e6118c71b2bc86c48961e05d082cdd4e0f",
	"omp/2t/20":        "2cfe45688c629e69590a8a0e427278083006a646032b9f5dd9d9a6b944e50037",
	"omp/2t/21":        "a571931575026e7d4e922a20981c1fd46eb2d30279ced12aba2d16712efb8817",
	"cube/1t/20":       "011120852c058eade09b6c28ba22829284957be5e05f58ccd74807ee74794339",
	"cube/1t/21":       "29421b7945dcedc0be7fe39b23bdf1e6118c71b2bc86c48961e05d082cdd4e0f",
	"cube/2t/20":       "2cfe45688c629e69590a8a0e427278083006a646032b9f5dd9d9a6b944e50037",
	"cube/2t/21":       "a571931575026e7d4e922a20981c1fd46eb2d30279ced12aba2d16712efb8817",
	"taskflow/1t/20":   "011120852c058eade09b6c28ba22829284957be5e05f58ccd74807ee74794339",
	"taskflow/1t/21":   "29421b7945dcedc0be7fe39b23bdf1e6118c71b2bc86c48961e05d082cdd4e0f",
	"taskflow/2t/20":   "011120852c058eade09b6c28ba22829284957be5e05f58ccd74807ee74794339",
	"taskflow/2t/21":   "29421b7945dcedc0be7fe39b23bdf1e6118c71b2bc86c48961e05d082cdd4e0f",
	"fused/1t/20":      "011120852c058eade09b6c28ba22829284957be5e05f58ccd74807ee74794339",
	"fused/1t/21":      "29421b7945dcedc0be7fe39b23bdf1e6118c71b2bc86c48961e05d082cdd4e0f",
	"fused/2t/20":      "2cfe45688c629e69590a8a0e427278083006a646032b9f5dd9d9a6b944e50037",
	"fused/2t/21":      "a571931575026e7d4e922a20981c1fd46eb2d30279ced12aba2d16712efb8817",
	"fused-f32/1t/20":  "b0135dc2e7fffe7984927e4a6c49b262dd3d54fb4295abbad30ecc4be3c6ce66",
	"fused-f32/1t/21":  "07cb529e4b768c0cbd8373aa4cf915921452aafe1e98ab29f473db7dea36b1a2",
	"fused-f32/2t/20":  "1e39b7bd9fd3638fe343626a2ce9e4884d4ba6e693aa9eac0d0ae6d1b6acd48e",
	"fused-f32/2t/21":  "57cd0c1e9c52027297e11696f6f72a93a3f7653c59f18e2deadddb13a88b6e53",
}

// TestObservedRunsBitwise: on every engine, thread count and observer
// set, the state after 20 and 21 steps equals the unobserved run's and,
// on amd64, the recorded parent hashes.
func TestObservedRunsBitwise(t *testing.T) {
	observers := []struct {
		name string
		add  func(*Config)
	}{
		{"watchdog", func(c *Config) { c.Watchdog = telemetry.NewWatchdog(telemetry.WatchdogConfig{}) }},
		{"steplog", func(c *Config) { c.LogWriter = io.Discard }},
		{"all", func(c *Config) {
			c.Watchdog = telemetry.NewWatchdog(telemetry.WatchdogConfig{})
			c.LogWriter = io.Discard
			c.FlightRec = &flightrec.Config{SnapshotEvery: 8}
		}},
	}
	for _, e := range sampledEngines {
		for _, threads := range []int{1, 2} {
			plain, err := New(sampledConfig(e, threads))
			if err != nil {
				t.Fatal(err)
			}
			plain.Run(20)
			want := [2]string{stateHash(t, plain)}
			plain.Step()
			want[1] = stateHash(t, plain)
			plain.Close()
			for i, h := range want {
				key := fmt.Sprintf("%s/%dt/%d", e.name, threads, 20+i)
				if p, ok := parentStateHashes[key]; runtime.GOARCH == "amd64" && (!ok || p != h) {
					t.Errorf("%q: %q, want the parent's %q", key, h, p)
				}
			}
			for _, o := range observers {
				cfg := sampledConfig(e, threads)
				o.add(&cfg)
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim.Run(20)
				got := [2]string{stateHash(t, sim)}
				sim.Step()
				got[1] = stateHash(t, sim)
				if err := sim.Health(); err != nil {
					t.Errorf("%s/%dt/%s: %v", e.name, threads, o.name, err)
				}
				sim.Close()
				if got != want {
					t.Errorf("%s/%dt/%s: state %v after 20 and 21 steps, unobserved %v", e.name, threads, o.name, got, want)
				}
			}
		}
	}
}
