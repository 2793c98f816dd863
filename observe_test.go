// Tests for per-step sampling: a Watchdog, a LogWriter and a flight
// recorder read one digest of each sampled state — on the parallel
// engines taken by the next step's collide sweep — which costs no
// allocation, names the step it describes, and leaves the simulated
// state bit for bit as an unobserved run leaves it.
package lbmib

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"testing"

	"lbmib/internal/flightrec"
	"lbmib/internal/grid"
	"lbmib/internal/telemetry"
)

// sampledEngine is one engine row of the sampling tests. allocs bounds
// the objects a plain steady-state Step allocates on sampledConfig at 2
// threads, as measured: every schedule binds the bodies it hands its team
// once, so a step allocates nothing.
// The deprecated Fused kind builds the omp engine; its row holds the
// alias, under its old name, to every check omp meets.
type sampledEngine struct {
	name   string
	kind   SolverKind
	allocs float64
}

var sampledEngines = []sampledEngine{
	{"sequential", Sequential, 0},
	{"omp", OpenMP, 0},
	{"cube", CubeBased, 0},
	{"fused", Fused, 0},
}

func sampledConfig(e sampledEngine, threads int) Config {
	return Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    e.kind, Threads: threads, CubeSize: 4,
	}
}

// TestObservedStepSamplesLiveLayout: a Watchdog-only Step, which samples
// every step (the parallel engines in the next step's sweep), allocates
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
// sampledConfig, per trajectory, recorded on linux/amd64 at the commit
// before sampling moved onto the digest. Every engine follows the
// sequential trajectory, and every engine and thread count must
// reproduce its pair, observed or not; a change that moves bits on
// purpose re-records them from the failure messages.
var parentStateHashes = map[string][2]string{
	"sequential": {
		"011120852c058eade09b6c28ba22829284957be5e05f58ccd74807ee74794339",
		"29421b7945dcedc0be7fe39b23bdf1e6118c71b2bc86c48961e05d082cdd4e0f",
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
			Solver:      e.kind, Threads: threads, CubeSize: 4,
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
// watchdog healthy on every step's sample. The cube engine also runs at
// 3 threads, a 3×1×1 mesh, so a sweep split over an odd team feeds the
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
			if p := parentStateHashes["sequential"]; runtime.GOARCH == "amd64" && p != want {
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

// TestStepLogNamesTheSampledStep: every line of the step log, and every
// digest the flight recorder's ring keeps, names the step whose state it
// describes. On the parallel engines a step's sample is completed by the
// next step's sweep, or by a reader between steps (here Close), so a
// line is written a step late; it must still carry the mass and speed of
// the state its own step left — the bits of the explicit digest of an
// unobserved twin after that many steps — on every engine, across Run
// and Step calls.
func TestStepLogNamesTheSampledStep(t *testing.T) {
	const steps = 6
	for _, e := range sampledEngines {
		t.Run(e.name, func(t *testing.T) {
			cfg := sampledConfig(e, 2)
			twin, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			d, err := grid.NewDigestGrid(16, 16, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			var mass, maxVel [steps + 1]float64
			for i := 1; i <= steps; i++ {
				twin.Step()
				if err := twin.eng.Digest(d); err != nil {
					t.Fatal(err)
				}
				mass[i], maxVel[i] = d.Mass, d.MaxVel
			}
			var log bytes.Buffer
			cfg.LogWriter = &log
			cfg.FlightRec = &flightrec.Config{DigestEvery: 1}
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(3)
			sim.Step()
			sim.Run(2)
			sim.Close()
			sc := bufio.NewScanner(&log)
			lines := 0
			for sc.Scan() {
				lines++
				var rec telemetry.StepRecord
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					t.Fatal(err)
				}
				if rec.Step != lines || math.Float64bits(rec.Mass) != math.Float64bits(mass[lines]) ||
					math.Float64bits(rec.MaxVel) != math.Float64bits(maxVel[lines]) {
					t.Errorf("line %d: step %d mass %v maxVel %v, want step %d mass %v maxVel %v",
						lines, rec.Step, rec.Mass, rec.MaxVel, lines, mass[lines], maxVel[lines])
				}
			}
			if lines != steps {
				t.Errorf("%d log lines, want %d", lines, steps)
			}
			digested := 0
			for _, r := range sim.FlightRecorder().Records() {
				if !r.HasDigest {
					continue
				}
				digested++
				if r.Step < 1 || r.Step > steps || math.Float64bits(r.Mass) != math.Float64bits(mass[r.Step]) {
					t.Errorf("ring step %d keeps mass %v, want that step's %v", r.Step, r.Mass, mass[min(max(r.Step, 0), steps)])
				}
			}
			if digested != steps {
				t.Errorf("ring keeps %d digests, want %d", digested, steps)
			}
		})
	}
}
