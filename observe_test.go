// Tests for per-step sampling: a Watchdog, a LogWriter and a flight
// recorder read one digest of the engine's live layout per step, which
// costs no allocation and leaves the simulated state bit for bit as an
// unobserved run leaves it.
package lbmib

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"runtime"
	"testing"

	"lbmib/internal/flightrec"
	"lbmib/internal/telemetry"
)

// sampledEngine is one engine row of the sampling tests. allocs bounds
// the objects a plain steady-state Step allocates on sampledConfig at 2
// threads, as measured: an allocation per cube, plane or node exceeds it.
type sampledEngine struct {
	name    string
	kind    SolverKind
	float32 bool
	allocs  float64
}

var sampledEngines = []sampledEngine{
	{"sequential", Sequential, false, 0},
	{"omp", OpenMP, false, 19},
	{"cube", CubeBased, false, 1},
	{"fused", Fused, false, 15},
	{"fused-f32", Fused, true, 15},
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
// exactly what a plain Step does, on every engine, and a plain Step no
// more than the engine's bound. Sampling by snapshot allocated a fresh
// slab grid per step on the cube engines; an allocation inside an
// engine's per-cube or per-plane loop costs one object per block.
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
			if want > e.allocs {
				t.Errorf("plain Step allocates %v objects, want at most %v", want, e.allocs)
			}
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

// parentStateHashes are stateHash after 20 and 21 unobserved steps of
// sampledConfig, per trajectory (bitwiseGroup), recorded on linux/amd64
// at the commit before sampling moved onto the digest. Every engine and
// thread count of a group must reproduce its group's pair, observed or
// not; a change that moves bits on purpose re-records them from the
// failure messages.
var parentStateHashes = map[string][2]string{
	"sequential": {
		"011120852c058eade09b6c28ba22829284957be5e05f58ccd74807ee74794339",
		"29421b7945dcedc0be7fe39b23bdf1e6118c71b2bc86c48961e05d082cdd4e0f",
	},
	"f32": {
		"b0135dc2e7fffe7984927e4a6c49b262dd3d54fb4295abbad30ecc4be3c6ce66",
		"07cb529e4b768c0cbd8373aa4cf915921452aafe1e98ab29f473db7dea36b1a2",
	},
}

// TestCanonicalizeIsRepresentationOnly: presenting the in-place engines'
// arrays in the natural phase moves data, never bits. A run whose state
// is snapshotted after every step only ever steps from the natural phase
// (core.AABlock's natural → swapped body, then canonicalized); a run
// snapshotted only at the end alternates both bodies. The two must hash
// alike after 20 and 21 steps, on every engine and thread count, with a
// sheet and in a lid-driven cavity — so the swapped → natural body equals
// canonicalizing followed by the natural → swapped body.
func TestCanonicalizeIsRepresentationOnly(t *testing.T) {
	cavity := func(e sampledEngine, threads int) Config {
		return Config{
			NX: 16, NY: 16, NZ: 16, Tau: 0.7,
			BoundaryX: NoSlip, BoundaryY: NoSlip, BoundaryZ: NoSlip,
			LidVelocity: [3]float64{0.05, 0.02, 0},
			Solver:      e.kind, Threads: threads, CubeSize: 4, Float32: e.float32,
		}
	}
	problems := []struct {
		name string
		cfg  func(sampledEngine, int) Config
	}{{"sheet", sampledConfig}, {"lid", cavity}}
	for _, p := range problems {
		for _, e := range sampledEngines {
			for _, threads := range []int{1, 2} {
				cfg := p.cfg(e, threads)
				every, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var snapped [2]string
				for step := 1; step <= 21; step++ {
					every.Step()
					h := stateHash(t, every)
					if step >= 20 {
						snapped[step-20] = h
					}
				}
				every.Close()
				for i, n := range []int{20, 21} {
					end, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					end.Run(n)
					if got := stateHash(t, end); got != snapped[i] {
						t.Errorf("%s/%s/%dt: %d steps snapshotted only at the end hash %s, snapshotted every step %s",
							p.name, e.name, threads, n, got, snapped[i])
					}
					end.Close()
				}
			}
		}
	}
}

// TestObservedRunsBitwise: on every engine, thread count and observer
// set, the state after 20 and 21 steps equals the unobserved run's and,
// on amd64, the recorded hashes of the engine's trajectory, with the
// watchdog healthy on every step's digest. The cube engine also runs at
// 3 threads, a 3×1×1 mesh, so a digest split over an odd team feeds the
// watchdog, the step log and the recorder.
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
		threadCounts := []int{1, 2}
		if e.kind == CubeBased {
			threadCounts = append(threadCounts, 3)
		}
		for _, threads := range threadCounts {
			plain, err := New(sampledConfig(e, threads))
			if err != nil {
				t.Fatal(err)
			}
			plain.Run(20)
			want := [2]string{stateHash(t, plain)}
			plain.Step()
			want[1] = stateHash(t, plain)
			plain.Close()
			if p := parentStateHashes[bitwiseGroup(e)]; runtime.GOARCH == "amd64" && p != want {
				t.Errorf("%s/%dt: %q after 20 and 21 steps, want the recorded %q", e.name, threads, want, p)
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
