// Integration tests for the Config.Contention attribution layer: the
// facade-level wiring of barrier wait profiles, load-imbalance
// gauges, the per-cube heatmap, and the step-log share fields.
package lbmib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lbmib/internal/telemetry"
)

// TestContentionCubeEngine runs the cube engine with the attribution
// layer on and checks the full rollup: stats, imbalance gauges, barrier
// wait series, and the schema-versioned heatmap export.
func TestContentionCubeEngine(t *testing.T) {
	reg := telemetry.NewRegistry()
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    CubeBased, Threads: 4, CubeSize: 4,
		Telemetry:  reg,
		Contention: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(3)

	st, ok := sim.ContentionStats()
	if !ok {
		t.Fatal("ContentionStats not available with Contention enabled")
	}
	if st.ImbalanceRatio < 1 {
		t.Errorf("imbalance ratio = %v, want ≥ 1 with phase samples", st.ImbalanceRatio)
	}
	if st.BarrierWaitShare <= 0 || st.BarrierWaitShare >= 1 {
		t.Errorf("barrier-wait share = %v, want in (0, 1)", st.BarrierWaitShare)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`lbmib_load_imbalance_ratio{engine="cube",phase="total"}`,
		`lbmib_load_imbalance_ratio{engine="cube",phase="collide_stream"}`,
		`lbmib_barrier_wait_seconds{engine="cube",site="end_of_step",thread="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}

	var hm bytes.Buffer
	if err := sim.WriteCubeHeatmap(&hm); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Cubes  []struct {
			TotalNanos int64 `json:"total_ns"`
		} `json:"cubes"`
	}
	if err := json.Unmarshal(hm.Bytes(), &doc); err != nil {
		t.Fatalf("heatmap is not valid JSON: %v", err)
	}
	if doc.Schema != "lbmib-heatmap/v1" {
		t.Errorf("heatmap schema = %q", doc.Schema)
	}
	if len(doc.Cubes) != 4*4*4 {
		t.Errorf("heatmap has %d cubes, want 64", len(doc.Cubes))
	}
}

// TestContentionOmpStepLog runs the loop-parallel engine with the
// attribution layer and a step log, checking the OmpP-style region
// accounting reaches both the stats and the JSONL share fields.
func TestContentionOmpStepLog(t *testing.T) {
	var buf bytes.Buffer
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    OpenMP, Threads: 4,
		LogWriter:  &buf,
		Contention: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(3)

	st, ok := sim.ContentionStats()
	if !ok {
		t.Fatal("ContentionStats not available")
	}
	if st.ImbalanceRatio < 1 {
		t.Errorf("imbalance ratio = %v, want ≥ 1", st.ImbalanceRatio)
	}

	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		n++
		var rec telemetry.StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if rec.Imbalance < 1 {
			t.Errorf("step %d: imbalance %v, want ≥ 1", rec.Step, rec.Imbalance)
		}
		if rec.BarrierWaitShare <= 0 || rec.BarrierWaitShare >= 1 {
			t.Errorf("step %d: barrier-wait share %v, want in (0, 1)", rec.Step, rec.BarrierWaitShare)
		}
	}
	if n != 3 {
		t.Fatalf("got %d log lines, want 3", n)
	}
}

// TestContentionTaskflowPhases checks the task-scheduled engine now
// reports per-phase worker times through the facade (the observer
// satellite) and that the imbalance rollup covers it.
func TestContentionTaskflowPhases(t *testing.T) {
	reg := telemetry.NewRegistry()
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    TaskScheduled, Threads: 4, CubeSize: 4,
		Telemetry:  reg,
		Contention: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(3)

	// Every cube task body lands in the phase histograms: 3 steps × 64
	// cubes of collide_stream.
	h := reg.Histogram("lbmib_phase_seconds", "", telemetry.ExpBuckets(1e-5, 2, 18),
		telemetry.L("phase", "collide_stream"))
	if got, want := h.Count(), uint64(3*64); got != want {
		t.Fatalf("collide_stream observations = %d, want %d (steps × cubes)", got, want)
	}
	st, ok := sim.ContentionStats()
	if !ok || st.ImbalanceRatio < 1 {
		t.Fatalf("taskflow imbalance rollup: ok=%v stats=%+v", ok, st)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `lbmib_load_imbalance_ratio{engine="taskflow",phase="total"}`) {
		t.Error("exposition missing taskflow imbalance gauge")
	}
}

// TestContentionDisabledUntouched pins the zero-overhead contract: with
// Contention off, stats are unavailable and the heatmap refuses.
func TestContentionDisabledUntouched(t *testing.T) {
	sim, err := New(Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		Solver: CubeBased, Threads: 2, CubeSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(2)
	if _, ok := sim.ContentionStats(); ok {
		t.Error("ContentionStats available without Config.Contention")
	}
	if err := sim.WriteCubeHeatmap(&bytes.Buffer{}); err == nil {
		t.Error("WriteCubeHeatmap succeeded without Config.Contention")
	}
}
