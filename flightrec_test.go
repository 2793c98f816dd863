// End-to-end tests for the flight recorder: a fault injected through
// the omp engine's test seam must trip the watchdog, leave a post-mortem
// bundle behind, and the bundle's localization report must name the
// poisoned cube and kernel phase.
package lbmib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lbmib/internal/engine"
	"lbmib/internal/flightrec"
	"lbmib/internal/lattice"
	"lbmib/internal/telemetry"
)

// injectDepositFault installs an off-by-one stand-in at node (6,2,5):
// from the given step on, the node receives a second (scaled) deposit of
// its z-neighbor's distributions after every step — the signature of a
// stream kernel writing one cell past its intended target — and its
// record the moments of the values it now holds, as the step's kernel 7
// would have written them: Live leaves every record fresh, and a digest
// reads a fresh record's density. The extra mass accumulates in one
// cube, so the watchdog's drift check and the recorder's per-tile
// localization both have something to find.
func injectDepositFault(t *testing.T, fromStep int) {
	t.Helper()
	engine.FaultHook = func(s *engine.Solver) {
		if s.StepCount() < fromStep-1 { // hook runs before the counter advances
			return
		}
		g := s.Live()
		var dst, src [lattice.Q]float64
		g.Load(g.Idx(6, 2, 5), &dst)
		g.Load(g.Idx(6, 2, 6), &src)
		for i := range dst {
			dst[i] += 0.01 * src[i]
		}
		g.Store(g.Idx(6, 2, 5), &dst)
		m := g.At(6, 2, 5)
		m.Rho = lattice.Moments(&dst, m.Force, &m.Vel)
	}
	t.Cleanup(func() { engine.FaultHook = nil })
}

// plantNaN makes one distribution value of node (5,4,2) NaN in the state
// the last step left, and the node's record the moments of what it now
// holds (ρ and u NaN), after the pending sample of that state has been
// delivered: the next step's state is the first that violates.
func plantNaN(s *Simulation) {
	l := s.live()
	j := l.Idx(5, 4, 2)
	var df [lattice.Q]float64
	l.Load(j, &df)
	df[5] = math.NaN()
	l.Store(j, &df)
	m := l.At(5, 4, 2)
	m.Rho = lattice.Moments(&df, m.Force, &m.Vel)
}

// TestBundleKeepsTheFlaggedSample: the ring keeps the sample the
// watchdog flags even off its DigestEvery cadence, so the bundle's
// localization finds the flagged step, on every engine. With DigestEvery
// 2 the NaN is planted so that the flag lands on an odd step.
func TestBundleKeepsTheFlaggedSample(t *testing.T) {
	for _, kind := range []SolverKind{Sequential, OpenMP, CubeBased} {
		for _, plantAt := range []int{2, 8} {
			t.Run(fmt.Sprintf("%v/flag at %d", kind, plantAt+1), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "postmortem")
				sim, err := New(Config{
					NX: 8, NY: 8, NZ: 8, Tau: 0.7,
					BodyForce: [3]float64{1e-5, 0, 0},
					Solver:    kind, Threads: 2, CubeSize: 4,
					Watchdog:  telemetry.NewWatchdog(telemetry.WatchdogConfig{}),
					FlightRec: &flightrec.Config{DigestEvery: 2, Dir: dir},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Close()
				sim.Run(plantAt)
				plantNaN(sim)
				sim.Run(10)
				var he *telemetry.HealthError
				if !errors.As(sim.Health(), &he) || he.Step != plantAt+1 {
					t.Fatalf("Health() = %v, want a violation at step %d", sim.Health(), plantAt+1)
				}
				b, err := flightrec.ReadBundle(dir)
				if err != nil {
					t.Fatalf("no bundle: %v", err)
				}
				if loc := b.Localization; !loc.Found || loc.Step != he.Step {
					t.Fatalf("the bundle's localization is %+v, want the flagged step %d found", loc, he.Step)
				}
			})
		}
	}
}

// TestFlightRecorderBundleOnInjectedFault is the forensics acceptance
// path: inject the off-by-one at step 5, let the watchdog latch, and
// check the automatically-written bundle names the poisoned cube (flat
// index 5: the 4³ tile holding (6,2,5)) and the collide/stream phase.
func TestFlightRecorderBundleOnInjectedFault(t *testing.T) {
	injectDepositFault(t, 5)
	dir := filepath.Join(t.TempDir(), "postmortem")
	reg := telemetry.NewRegistry()
	var logBuf bytes.Buffer
	sim, err := New(Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Solver:    OpenMP, Threads: 2,
		Telemetry: reg,
		LogWriter: &logBuf,
		Watchdog:  telemetry.NewWatchdog(telemetry.WatchdogConfig{Registry: reg}),
		FlightRec: &flightrec.Config{RingSize: 64, DigestEvery: 1, SnapshotEvery: 2, Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	sim.Run(20)

	// The watchdog must have stopped the run one step after the faulted
	// state — step 6's collide sweep samples the state step 5 left — and
	// localized the drift to the injection cube at step 5.
	if got := sim.StepCount(); got != 6 {
		t.Fatalf("run stopped at step %d, want 6 (one step after the first faulted state)", got)
	}
	var he *telemetry.HealthError
	if err := sim.Health(); err == nil {
		t.Fatal("watchdog missed the injected fault")
	} else if !errors.As(err, &he) {
		t.Fatalf("health error has type %T", err)
	}
	if he.Step != 5 || he.Cube != 5 || he.Phase != "collide_stream" {
		t.Fatalf("watchdog localized step=%d cube=%d phase=%q, want 5/5/collide_stream", he.Step, he.Cube, he.Phase)
	}
	if g := reg.Gauge("lbmib_unhealthy_cube", "",
		telemetry.L("cube", "5"), telemetry.L("phase", "collide_stream")); g.Value() != 1 {
		t.Error("lbmib_unhealthy_cube gauge not set for the localized cube")
	}
	if reg.Gauge("lbmib_build_info", "").Value() != 0 {
		// The labeled build-info gauge carries version labels; the bare
		// name must not have been claimed by anything else.
		t.Error("unlabeled lbmib_build_info gauge unexpectedly set")
	}

	// The bundle must exist where configured, with the watchdog reason.
	bdir, ok := sim.FlightRecorder().BundleDir()
	if !ok || bdir != dir {
		t.Fatalf("BundleDir = %q, %v", bdir, ok)
	}
	b, err := flightrec.ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Reason != "watchdog" || b.Manifest.Schema != flightrec.Schema {
		t.Fatalf("manifest reason/schema = %q/%q", b.Manifest.Reason, b.Manifest.Schema)
	}
	if b.Manifest.Health == nil || b.Manifest.Health.Cube != 5 {
		t.Fatalf("bundle health = %+v", b.Manifest.Health)
	}
	// The last healthy snapshot precedes the fault (cadence 2 → step 4).
	if b.Manifest.SnapshotStep != 4 || len(b.Checkpoint) == 0 {
		t.Fatalf("snapshot step=%d ckptBytes=%d, want step 4 with data", b.Manifest.SnapshotStep, len(b.Checkpoint))
	}
	if b.Manifest.Run == nil || b.Manifest.Run.Solver != "omp" || b.Manifest.Run.NX != 8 {
		t.Fatalf("run spec = %+v", b.Manifest.Run)
	}

	// Localization: the injection site (6,2,5) lives in tile (1,0,1) of
	// the 2×2×2 tile grid — flat cube 5. Accept one cube of slack (mass
	// leaks to neighbors through streaming) but not more.
	loc := b.Localization
	if !loc.Found || loc.Step != 5 {
		t.Fatalf("localization = %+v, want a hit at step 5", loc)
	}
	want := [3]int{1, 0, 1}
	for ax := 0; ax < 3; ax++ {
		d := loc.CubeCoord[ax] - want[ax]
		if d < -1 || d > 1 {
			t.Fatalf("localized cube %v is more than one cube from injection site %v", loc.CubeCoord, want)
		}
	}
	if loc.Cube != 5 {
		t.Logf("note: localized cube %d (coord %v), injection cube 5", loc.Cube, loc.CubeCoord)
	}
	if loc.Phase != "collide_stream" {
		t.Fatalf("localized phase %q, want collide_stream", loc.Phase)
	}
	foundKernel := false
	for _, k := range loc.Kernels {
		if k == "stream_fluid_velocity_distribution" || k == "compute_fluid_collision" {
			foundKernel = true
		}
	}
	if !foundKernel {
		t.Fatalf("localization kernels %v name neither collision nor streaming", loc.Kernels)
	}

	// The step log's final line must carry the unhealthy record.
	var last telemetry.StepRecord
	sc := bufio.NewScanner(&logBuf)
	lines := 0
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("log line %d invalid: %v", lines, err)
		}
	}
	if lines != 5 || last.Step != 5 {
		t.Fatalf("step log has %d lines, the last for step %d, want 5 ending at the faulted step 5", lines, last.Step)
	}
	if last.Unhealthy == nil || last.Unhealthy.Cube != 5 || last.Unhealthy.Phase != "collide_stream" {
		t.Fatalf("final step record unhealthy = %+v", last.Unhealthy)
	}
}

// TestFlightRecorderPanicBundle checks the crash path: a panic inside a
// step still leaves a bundle (reason "panic") before propagating.
func TestFlightRecorderPanicBundle(t *testing.T) {
	engine.FaultHook = func(s *engine.Solver) {
		if s.StepCount() == 2 {
			panic("kernel exploded")
		}
	}
	t.Cleanup(func() { engine.FaultHook = nil })

	dir := filepath.Join(t.TempDir(), "postmortem")
	sim, err := New(Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		Solver: OpenMP, Threads: 2,
		FlightRec: &flightrec.Config{RingSize: 16, DigestEvery: 1, SnapshotEvery: 2, Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic swallowed by the recorder")
			}
		}()
		sim.Run(10)
	}()

	b, err := flightrec.ReadBundle(dir)
	if err != nil {
		t.Fatalf("no bundle after panic: %v", err)
	}
	if b.Manifest.Reason != "panic" {
		t.Fatalf("bundle reason = %q, want panic", b.Manifest.Reason)
	}
	if len(b.Records) == 0 {
		t.Fatal("panic bundle has an empty ring")
	}
}

// TestPostMortemReplay closes the forensics loop: rebuild a Config from
// the bundle's run spec, Restore the bundled checkpoint, and verify the
// replayed state matches a fresh run advanced to the snapshot step.
func TestPostMortemReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "postmortem")
	cfg := Config{
		NX: 12, NY: 8, NZ: 8, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		BoundaryZ: NoSlip,
		Sheet: &SheetConfig{
			NumFibers: 6, NodesPerFiber: 6, Width: 2.4, Height: 2.4,
			Origin: [3]float64{4, 3, 3}, Ks: 0.05, Kb: 0.001,
		},
	}
	rcfg := cfg
	rcfg.FlightRec = &flightrec.Config{RingSize: 16, DigestEvery: 2, SnapshotEvery: 4, Dir: dir}
	sim, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(9) // snapshots at 4 and 8; last retained is step 8
	if _, err := sim.WritePostMortem("manual"); err != nil {
		t.Fatal(err)
	}

	b, err := flightrec.ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Reason != "manual" || b.Manifest.SnapshotStep != 8 {
		t.Fatalf("manifest reason=%q snapshotStep=%d", b.Manifest.Reason, b.Manifest.SnapshotStep)
	}
	if b.Manifest.Run == nil {
		t.Fatal("bundle lacks a run spec")
	}
	recfg, err := ConfigFromRunSpec(*b.Manifest.Run)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Restore(bytes.NewReader(b.Checkpoint), recfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	if replay.StepCount() != 8 {
		t.Fatalf("replay starts at step %d, want 8", replay.StepCount())
	}

	// A fresh run of the same config advanced to the snapshot step must
	// agree with the replayed state (the sequential engine is
	// deterministic).
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Run(8)
	for _, p := range [][3]int{{0, 0, 0}, {5, 4, 4}, {11, 7, 7}} {
		if got, want := replay.FluidDensity(p[0], p[1], p[2]), ref.FluidDensity(p[0], p[1], p[2]); got != want {
			t.Fatalf("density at %v: replay %g, fresh run %g", p, got, want)
		}
	}
	replay.Run(2) // and it must keep stepping
	if replay.StepCount() != 10 {
		t.Fatalf("replay advanced to %d, want 10", replay.StepCount())
	}
}

// A bundle written while the task-scheduled engine existed names it in
// run.solver. It still decodes, but rebuilding its Config (what
// lbmib-sim postmortem -replay does) reports the retired name as an unknown
// solver instead of replaying on some other engine, or panicking.
func TestConfigFromRunSpecRejectsRetiredSolver(t *testing.T) {
	spec := flightrec.RunSpec{NX: 8, NY: 8, NZ: 8, Tau: 0.7, Solver: "taskflow", Threads: 2, CubeSize: 4}
	if _, err := ConfigFromRunSpec(spec); err == nil || !strings.Contains(err.Error(), `unknown solver "taskflow"`) {
		t.Fatalf("ConfigFromRunSpec(solver taskflow) error = %v, want unknown solver", err)
	}
}

// A bundle written while the fused engine could store its distributions
// in float32 records that in run.float32. It still decodes, but
// rebuilding its Config refuses it: a float64 replay would not reproduce
// the recorded trajectory.
func TestConfigFromRunSpecRejectsFloat32(t *testing.T) {
	spec := flightrec.RunSpec{NX: 8, NY: 8, NZ: 8, Tau: 0.7, Solver: "fused", Threads: 2, Float32: true}
	if _, err := ConfigFromRunSpec(spec); err == nil || !strings.Contains(err.Error(), "float32") {
		t.Fatalf("ConfigFromRunSpec(float32) error = %v, want the retired float32 storage named", err)
	}
	spec.Float32 = false
	if _, err := ConfigFromRunSpec(spec); err != nil {
		t.Fatalf("ConfigFromRunSpec(float64 fused) = %v", err)
	}
}

// A bundle recorded on the retired fused engine names it in run.solver.
// Rebuilding its Config replays it on OpenMP, whose one slab pass
// computed the same bits: the rebuilt simulation follows OpenMP's
// trajectory bit for bit.
func TestConfigFromRunSpecReplaysFusedOnOpenMP(t *testing.T) {
	ompSim, err := New(sampledConfig(sampledEngine{kind: OpenMP}, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer ompSim.Close()
	spec := ompSim.runSpec()
	spec.Solver = "fused"
	cfg, err := ConfigFromRunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	if got := replay.Config().Solver; got != OpenMP {
		t.Fatalf("solver %q rebuilt as %v, want %v", spec.Solver, got, OpenMP)
	}
	for _, steps := range []int{3, 1} { // 3 and 4 steps: both phases of the array
		ompSim.Run(steps)
		replay.Run(steps)
		if got, want := stateHash(t, replay), stateHash(t, ompSim); got != want {
			t.Fatalf("after %d steps: replay %s, OpenMP %s", replay.StepCount(), got, want)
		}
	}
}

// TestFlightRecorderRingSpeaksStepCount pins the step numbering every
// sink shares: an engine stamps events with its own 0-based step index,
// the driver records aggregates under Simulation.StepCount(), and the
// facade translates the former into the latter — once, fresh or after a
// Restore. At the parent of this test the ring paired step n's wall time
// with step n+1's timings: a phantom step-0 record, and an empty last one.
func TestFlightRecorderRingSpeaksStepCount(t *testing.T) {
	for _, e := range sampledEngines {
		for _, restoredAt := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/from%d", e.name, restoredAt), func(t *testing.T) {
				const threads, steps = 2, 3
				plain := Config{
					NX: 16, NY: 16, NZ: 16, Tau: 0.7,
					BodyForce: [3]float64{1e-5, 0, 0},
					Sheet:     telemetrySheet(),
					Solver:    e.kind, Threads: threads, CubeSize: 4,
				}
				var log, ck bytes.Buffer
				cfg := plain
				cfg.FlightRec = &flightrec.Config{}
				cfg.LogWriter = &log
				cfg.TraceFile = filepath.Join(t.TempDir(), "trace.json")

				var sim *Simulation
				var err error
				if restoredAt == 0 {
					sim, err = New(cfg)
				} else {
					seed, serr := New(plain)
					if serr != nil {
						t.Fatal(serr)
					}
					seed.Run(restoredAt)
					if err := seed.Checkpoint(&ck); err != nil {
						t.Fatal(err)
					}
					seed.Close()
					sim, err = Restore(&ck, cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				sim.Run(steps)
				recs := sim.FlightRecorder().Records()
				if err := sim.Close(); err != nil {
					t.Fatal(err)
				}

				want := map[int]bool{}
				for i := 1; i <= steps; i++ {
					want[restoredAt+i] = true
				}
				ringed := map[int]bool{}
				for _, r := range recs {
					ringed[r.Step] = true
					timed := 0.0
					for _, v := range r.KernelSeconds {
						timed += v
					}
					for _, v := range r.PhaseSeconds {
						timed += v
					}
					if r.WallSeconds <= 0 || timed <= 0 {
						t.Errorf("step %d: wall %gs, kernel+phase %gs; both must be recorded", r.Step, r.WallSeconds, timed)
					}
					if limit := threads * r.WallSeconds * 1.05; timed > limit {
						t.Errorf("step %d: kernel+phase %gs exceeds threads × wall = %gs: timings of another step", r.Step, timed, limit)
					}
				}

				logged, traced := map[int]bool{}, map[int]bool{}
				for sc := bufio.NewScanner(&log); sc.Scan(); {
					var rec telemetry.StepRecord
					if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
						t.Fatal(err)
					}
					logged[rec.Step] = true
				}
				data, err := os.ReadFile(cfg.TraceFile)
				if err != nil {
					t.Fatal(err)
				}
				var doc chromeTrace
				if err := json.Unmarshal(data, &doc); err != nil {
					t.Fatal(err)
				}
				for _, ev := range doc.TraceEvents {
					if ev.Phase == "X" {
						traced[int(ev.Args["step"].(float64))] = true
					}
				}
				for sink, got := range map[string]map[int]bool{"ring": ringed, "step log": logged, "trace": traced} {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s labels its steps %v, want %v (StepCount numbering)", sink, got, want)
					}
				}
			})
		}
	}
}

// TestSnapshotWhileTheSampleFlags drives the recorder's snapshot the way
// a driver of its own would: after every step it snapshots through
// Simulation.Checkpoint. Checkpoint completes the step's pending sample
// first, so on the step the watchdog flags, the bundle is written from
// inside the snapshot's writer. The snapshot must return, which it can
// only if the recorder does not hold its lock while the writer runs.
func TestSnapshotWhileTheSampleFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "postmortem")
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.6,
		BodyForce: [3]float64{0.05, 0, 0},
		Solver:    OpenMP, Threads: 2,
		Watchdog:  telemetry.NewWatchdog(telemetry.WatchdogConfig{}),
		FlightRec: &flightrec.Config{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100 && sim.Health() == nil; i++ {
			sim.Step()
			if err := sim.FlightRecorder().TakeSnapshot(sim.StepCount(), 0, sim.Checkpoint); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		// The simulation stays open: Close would wait on the stuck team.
		t.Fatalf("TakeSnapshot has not returned after 30 s (step %d)", sim.StepCount())
	}
	defer sim.Close()

	var he *telemetry.HealthError
	if !errors.As(sim.Health(), &he) {
		t.Fatalf("the run was never flagged: Health() = %v", sim.Health())
	}
	b, err := flightrec.ReadBundle(dir)
	if err != nil {
		t.Fatalf("no bundle: %v", err)
	}
	if b.Manifest.Reason != "watchdog" || b.Manifest.Health == nil || b.Manifest.Health.Step != he.Step {
		t.Fatalf("bundle reason %q, health %+v; want watchdog at step %d", b.Manifest.Reason, b.Manifest.Health, he.Step)
	}
	if b.Manifest.SnapshotStep >= he.Step {
		t.Fatalf("bundle keeps the snapshot of step %d, not one before the flagged step %d", b.Manifest.SnapshotStep, he.Step)
	}
}
