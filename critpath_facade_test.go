// Integration tests for the Config.CritPath attribution profile: the
// facade-level wiring of last-arriver attribution, the Table I and
// Table II rollups, the published gauges, the step-log fields, every
// engine's coverage, and the flight-recorder bundle section.
package lbmib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbmib/internal/flightrec"
	"lbmib/internal/perfmon"
	"lbmib/internal/telemetry"
)

// TestCritPathCubeEngine runs the cube engine with the profiler on and
// checks the full rollup: per-site crossings and causes, per-phase
// critical-path seconds, the what-if table, the published metric
// families, and the per-step critpath log field.
func TestCritPathCubeEngine(t *testing.T) {
	reg := telemetry.NewRegistry()
	var log bytes.Buffer
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    CubeBased, Threads: 4, CubeSize: 4,
		Telemetry: reg,
		LogWriter: &log,
		CritPath:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	const steps = 3
	sim.Run(steps)

	r, ok := sim.CritPathReport()
	if !ok {
		t.Fatal("CritPathReport not available with CritPath enabled")
	}
	if err := perfmon.Validate(r); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if r.Engine != "cube" || r.Threads != 4 {
		t.Errorf("report header engine=%q threads=%d", r.Engine, r.Threads)
	}
	if r.Steps != steps {
		t.Errorf("report covers %d steps, want %d", r.Steps, steps)
	}
	sites := map[string]perfmon.SiteReport{}
	for _, sr := range r.Sites {
		sites[sr.Site] = sr
	}
	for _, site := range []string{"after_spread", "after_stream", "end_of_step"} {
		sr, found := sites[site]
		if !found || sr.Crossings != steps {
			t.Errorf("site %s: crossings=%d found=%v, want %d", site, sr.Crossings, found, steps)
			continue
		}
		total := int64(0)
		for _, n := range sr.LastArrivals {
			total += n
		}
		if total != sr.Crossings {
			t.Errorf("site %s: last arrivals %d ≠ crossings %d", site, total, sr.Crossings)
		}
		if sr.Cause == "" {
			t.Errorf("site %s: no classified cause", site)
		}
	}
	var critSec float64
	for _, pr := range r.Phases {
		critSec += pr.CriticalSeconds
	}
	if critSec <= 0 {
		t.Error("no critical-path seconds accumulated")
	}
	if len(r.WhatIf) == 0 || r.WhatIf[0].Name != "measured" {
		t.Fatalf("what-if table = %+v, want measured first", r.WhatIf)
	}
	if len(r.Chains) == 0 {
		t.Error("no last-arriver chains reconstructed")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`lbmib_critical_path_seconds{engine="cube",phase="collide_stream"}`,
		`lbmib_last_arriver_total{engine="cube",site="end_of_step",tid="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}

	sc := bufio.NewScanner(&log)
	n, withCrit := 0, 0
	for sc.Scan() {
		n++
		var rec telemetry.StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if rec.CritPath != nil {
			withCrit++
			if rec.CritPath.Phase == "" || rec.CritPath.Seconds <= 0 {
				t.Errorf("step %d: critpath field %+v", rec.Step, rec.CritPath)
			}
		}
	}
	if n != steps || withCrit == 0 {
		t.Fatalf("%d log lines (%d with critpath), want %d with at least one attributed", n, withCrit, steps)
	}
}

// TestCritPathOmpRegions checks the loop-parallel engine reports its
// parallel regions as critpath sites while keeping the OmpP-style
// rollup intact (one profile answers both from the region events).
func TestCritPathOmpRegions(t *testing.T) {
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    OpenMP, Threads: 4,
		CritPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(3)

	r, ok := sim.CritPathReport()
	if !ok || r.Engine != "omp" {
		t.Fatalf("critpath report ok=%v engine=%q", ok, r.Engine)
	}
	if r.ImbalanceRatio < 1 {
		t.Fatalf("omp contention rollup broken alongside critpath: %+v", r)
	}
	crossed := 0
	for _, sr := range r.Sites {
		if sr.Crossings > 0 {
			crossed++
			if !strings.HasPrefix(sr.Site, "region_") {
				t.Errorf("omp site %q lacks region_ prefix", sr.Site)
			}
		}
	}
	if crossed == 0 {
		t.Error("no omp region sites crossed")
	}
}

// TestCritPathBundleSection checks the profiler's report joins
// post-mortem bundles as critpath.json with the what-if table filled.
func TestCritPathBundleSection(t *testing.T) {
	dir := t.TempDir()
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    CubeBased, Threads: 2, CubeSize: 4,
		FlightRec: &flightrec.Config{Dir: filepath.Join(dir, "bundle")},
		CritPath:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(2)

	bdir, err := sim.WritePostMortem("manual")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(bdir, flightrec.CritPathFile))
	if err != nil {
		t.Fatalf("bundle missing critpath section: %v", err)
	}
	var r perfmon.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("critpath.json invalid: %v", err)
	}
	if err := perfmon.Validate(r); err != nil {
		t.Fatal(err)
	}
	if len(r.WhatIf) == 0 {
		t.Error("bundle report has no what-if table")
	}
	b, err := flightrec.ReadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range b.Manifest.Files {
		found = found || f == flightrec.CritPathFile
	}
	if !found {
		t.Errorf("manifest files %v missing %s", b.Manifest.Files, flightrec.CritPathFile)
	}
}

// TestCritPathDisabledUntouched pins the zero-overhead contract: with
// CritPath off, the report is unavailable.
func TestCritPathDisabledUntouched(t *testing.T) {
	sim, err := New(Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		Solver: CubeBased, Threads: 2, CubeSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(2)
	if _, ok := sim.CritPathReport(); ok {
		t.Error("CritPathReport available without Config.CritPath")
	}
}

// TestContentionCubeEngine runs the cube engine with the profile on and
// checks the Table II rollup, the imbalance gauges and the barrier wait
// series.
func TestContentionCubeEngine(t *testing.T) {
	reg := telemetry.NewRegistry()
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    CubeBased, Threads: 4, CubeSize: 4,
		Telemetry: reg,
		CritPath:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(3)

	r, ok := sim.CritPathReport()
	if !ok {
		t.Fatal("CritPathReport not available with CritPath enabled")
	}
	if r.ImbalanceRatio < 1 {
		t.Errorf("imbalance ratio = %v, want ≥ 1 with phase samples", r.ImbalanceRatio)
	}
	if r.BarrierWaitShare <= 0 || r.BarrierWaitShare >= 1 {
		t.Errorf("barrier-wait share = %v, want in (0, 1)", r.BarrierWaitShare)
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
}

// TestContentionOmpStepLog runs the loop-parallel engine with the
// profile and a step log, checking the OmpP-style region accounting
// reaches both the report and the JSONL share fields.
func TestContentionOmpStepLog(t *testing.T) {
	var buf bytes.Buffer
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    OpenMP, Threads: 4,
		LogWriter: &buf,
		CritPath:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(3)

	r, ok := sim.CritPathReport()
	if !ok {
		t.Fatal("CritPathReport not available")
	}
	if r.ImbalanceRatio < 1 {
		t.Errorf("imbalance ratio = %v, want ≥ 1", r.ImbalanceRatio)
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

// TestContentionDisabledUntouched pins the zero-overhead contract: with
// CritPath off the report is unavailable and the step log carries no
// attribution fields.
func TestContentionDisabledUntouched(t *testing.T) {
	var buf bytes.Buffer
	sim, err := New(Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		Solver: CubeBased, Threads: 2, CubeSize: 4,
		LogWriter: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(2)
	if _, ok := sim.CritPathReport(); ok {
		t.Error("CritPathReport available without Config.CritPath")
	}
	for _, field := range []string{`"imbalance"`, `"barrierWaitShare"`, `"critpath"`} {
		if strings.Contains(buf.String(), field) {
			t.Errorf("step log carries %s without Config.CritPath:\n%s", field, buf.String())
		}
	}
}

// TestCritPathSequential: the sequential engine times its nine kernels,
// so its report is Table I with shares summing to 100 %, and nothing
// else.
func TestCritPathSequential(t *testing.T) {
	sim, err := New(Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0},
		Sheet:     telemetrySheet(),
		Solver:    Sequential, Threads: 4,
		CritPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(2)
	r, ok := sim.CritPathReport()
	if !ok {
		t.Fatal("CritPathReport not available on the sequential engine")
	}
	if err := perfmon.Validate(r); err != nil {
		t.Fatal(err)
	}
	if r.Engine != "sequential" || r.Threads != 1 || r.Steps != 2 {
		t.Errorf("report header engine=%q threads=%d steps=%d", r.Engine, r.Threads, r.Steps)
	}
	var pct float64
	for _, k := range r.Kernels {
		pct += k.Percent
	}
	if len(r.Kernels) != 9 || pct < 99.999 || pct > 100.001 {
		t.Errorf("%d kernel rows summing to %v%%, want 9 summing to 100%%", len(r.Kernels), pct)
	}
	if len(r.Sites)+len(r.Phases)+len(r.Chains)+len(r.WhatIf) > 0 {
		t.Errorf("sequential report has thread rows: %+v", r)
	}
}

// TestConfigSequentialThreads: the sequential engine runs one thread
// whatever was asked, and says so.
func TestConfigSequentialThreads(t *testing.T) {
	sim, err := New(Config{NX: 8, NY: 8, NZ: 8, Solver: Sequential, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if got := sim.Config().Threads; got != 1 {
		t.Errorf("Config().Threads = %d, want 1", got)
	}
}

// TestCritPathParentBundleDecodes: a critpath.json written into a bundle
// by the separate critical-path profiler this profile replaced (commit
// 299e5be, TestCritPathBundleSection) still decodes and validates.
func TestCritPathParentBundleDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "critpath-parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r perfmon.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if err := perfmon.Validate(r); err != nil {
		t.Fatal(err)
	}
	if r.Engine != "cube" || r.Steps != 2 || len(r.Sites) == 0 || len(r.Phases) != 5 || len(r.WhatIf) == 0 {
		t.Errorf("decoded report engine=%q steps=%d, %d sites, %d phases, %d what-if rows",
			r.Engine, r.Steps, len(r.Sites), len(r.Phases), len(r.WhatIf))
	}
}
