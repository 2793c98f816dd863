// Integration tests for the unified telemetry layer: the Config-level
// wiring of metrics, Chrome traces, the per-step JSONL run log, and the
// physics watchdog, exercised through the public Simulation API.
package lbmib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbmib/internal/telemetry"
)

func telemetrySheet() *SheetConfig {
	return &SheetConfig{
		NumFibers: 8, NodesPerFiber: 8, Width: 3.2, Height: 3.2,
		Origin: [3]float64{4, 6, 6}, Ks: 0.05, Kb: 0.001,
	}
}

// chromeTrace mirrors the trace-event JSON document for decoding.
type chromeTrace struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestTraceFileCubeRun is the acceptance path: a cube-solver run with
// TraceFile set produces valid Chrome trace-event JSON with at least
// P·Q·R thread tracks carrying named Algorithm-4 phase slices.
func TestTraceFileCubeRun(t *testing.T) {
	const threads = 4
	path := filepath.Join(t.TempDir(), "out.json")
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    CubeBased, Threads: threads, CubeSize: 4,
		TraceFile: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(3)
	if err := sim.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	tracks := map[int]bool{}
	phases := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		tracks[ev.TID] = true
		phases[ev.Name] = true
	}
	if len(tracks) < threads {
		t.Fatalf("trace has %d thread tracks, want ≥ %d (the P·Q·R mesh)", len(tracks), threads)
	}
	for _, want := range []string{
		"fiber_force_spread", "collide_stream", "update_velocity", "move_fibers", "swap_distribution",
	} {
		if !phases[want] {
			t.Errorf("Algorithm-4 phase %q missing from trace", want)
		}
	}
}

// TestMetricsLiveDuringRun serves /metrics while a simulation advances
// and asserts the step counter, MLUPS gauge, and per-kernel histograms
// are exposed.
func TestMetricsLiveDuringRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	exp, err := telemetry.Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	sim.Run(5)

	resp, err := http.Get("http://" + exp.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"lbmib_steps_total 5",
		"lbmib_mlups ",
		`lbmib_kernel_seconds_count{kernel="compute_fluid_collision"} 5`,
		"lbmib_step_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, out)
		}
	}
	if reg.Gauge("lbmib_mlups", "").Value() <= 0 {
		t.Error("MLUPS gauge not positive after a run")
	}
}

// TestPhaseHistogramsForCubeEngine asserts the cube engine feeds
// per-phase histograms (one observation per worker per step per phase).
func TestPhaseHistogramsForCubeEngine(t *testing.T) {
	reg := telemetry.NewRegistry()
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		Solver: CubeBased, Threads: 2, CubeSize: 4,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(4)
	h := reg.Histogram("lbmib_phase_seconds", "", telemetry.ExpBuckets(1e-5, 2, 18),
		telemetry.L("phase", "collide_stream"))
	if got, want := h.Count(), uint64(4*2); got != want {
		t.Fatalf("collide_stream observations = %d, want %d (steps × workers)", got, want)
	}
}

// TestJSONLRunLog checks the per-step run log satellite: one valid JSON
// line per step with the documented fields.
func TestJSONLRunLog(t *testing.T) {
	var buf bytes.Buffer
	sim, err := New(Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		LogWriter: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(4)

	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		n++
		var rec telemetry.StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", n, err)
		}
		if rec.Step != n {
			t.Errorf("line %d has step %d", n, rec.Step)
		}
		if rec.Mass <= 0 || rec.KernelMillis < 0 || rec.MLUPS < 0 {
			t.Errorf("implausible record: %+v", rec)
		}
	}
	if n != 4 {
		t.Fatalf("got %d log lines, want 4", n)
	}
}

// TestWatchdogStopsRun injects a NaN mid-run and asserts the watchdog
// flags the exact step and that Run stops advancing afterwards.
func TestWatchdogStopsRun(t *testing.T) {
	wd := telemetry.NewWatchdog(telemetry.WatchdogConfig{})
	sim, err := New(Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Watchdog:  wd,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	sim.Run(3)
	if err := sim.Health(); err != nil {
		t.Fatalf("healthy run flagged: %v", err)
	}
	// Poison the engine state directly (the sequential engine exposes
	// its grid through the snapshot).
	seq := sim.eng.(*seqEngine)
	seq.Fluid.Dist()[seq.Fluid.Slot(42, 3)] = math.NaN()

	sim.Run(10)
	he := new(telemetry.HealthError)
	if err := sim.Health(); err == nil {
		t.Fatal("watchdog missed the injected NaN")
	} else if !errorsAs(err, &he) || he.Step != 4 {
		t.Fatalf("flagged %v, want failure at step 4", err)
	}
	// Run must have stopped at the flagged step instead of burning the
	// remaining 9.
	if got := sim.StepCount(); got != 4 {
		t.Fatalf("run advanced to step %d after the flag, want 4", got)
	}
}

// TestNaNSheetPositionEndsInWatchdogError: a non-finite fiber-node
// position saturates the stencil's integer base, which the coupling's
// per-stencil wrap must still map into the box — the run ends in the
// watchdog's error on every engine, never in an out-of-range index.
func TestNaNSheetPositionEndsInWatchdogError(t *testing.T) {
	for _, kind := range []SolverKind{Sequential, OpenMP, CubeBased} {
		sim, err := New(Config{
			NX: 8, NY: 8, NZ: 8, Tau: 0.7, Solver: kind, Threads: 2, CubeSize: 4,
			Sheet:    &SheetConfig{NumFibers: 6, NodesPerFiber: 6, Width: 3, Height: 3, Origin: [3]float64{4, 2.5, 2.5}, Ks: 0.05, Kb: 0.001},
			Watchdog: telemetry.NewWatchdog(telemetry.WatchdogConfig{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.sheets[0].X[14][1] = math.NaN()
		sim.Run(10)
		if err := sim.Health(); err == nil {
			t.Errorf("%v: ten steps on a NaN fiber node left the watchdog healthy", kind)
		}
		if got := sim.StepCount(); got >= 10 {
			t.Errorf("%v: run advanced %d steps past the NaN", kind, got)
		}
		sim.Close()
	}
}

// errorsAs is a tiny local wrapper to keep the test dependency-light.
func errorsAs(err error, target **telemetry.HealthError) bool {
	he, ok := err.(*telemetry.HealthError)
	if ok {
		*target = he
	}
	return ok
}

// TestNoTelemetryNoObserver guards the zero-overhead default: without
// telemetry configuration the engines keep a nil probe.
func TestNoTelemetryNoObserver(t *testing.T) {
	sim, err := New(Config{NX: 8, NY: 8, NZ: 8, Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.instrumented() {
		t.Fatal("plain config reports instrumented")
	}
	if sim.eng.(*seqEngine).Probe != nil {
		t.Fatal("plain config attached a probe")
	}
}

// TestTraceFileBadPath ensures New surfaces an unwritable trace path.
func TestTraceFileBadPath(t *testing.T) {
	_, err := New(Config{NX: 4, NY: 4, NZ: 4, Tau: 0.7,
		TraceFile: filepath.Join(t.TempDir(), "no", "such", "dir", "t.json")})
	if err == nil {
		t.Fatal("unwritable trace path accepted")
	}
}
