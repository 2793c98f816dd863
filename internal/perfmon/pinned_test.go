package perfmon

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/perfsim"
	"lbmib/internal/telemetry"
)

// parentValues is what testdata/parent-*.json hold: every number the two
// former sinks of this event path — perfmon.Profile (Table I, Table II,
// per-site waits) and critpath.Profiler (the report and its steplog
// records) — answered for one of the fixed streams of streams_test.go,
// as of commit 299e5be. The merged Profile must reproduce them exactly.
type parentValues struct {
	Ranked []struct {
		Kernel  string  `json:"kernel"`
		Nanos   int64   `json:"nanos"`
		Percent float64 `json:"percent"`
	} `json:"ranked"`
	TotalNanos       int64                           `json:"totalNanos"`
	Calls            map[string]int                  `json:"calls"`
	ImbalanceRatio   float64                         `json:"imbalanceRatio"`
	PhaseRatios      map[string]float64              `json:"phaseRatios"`
	KernelRatios     map[string]float64              `json:"kernelRatios"`
	Wall             time.Duration                   `json:"wallNanos"`
	BarrierWaitShare float64                         `json:"barrierWaitShare"`
	WaitNanos        map[string][]int64              `json:"waitNanos"`
	CriticalNanos    int64                           `json:"criticalNanos"`
	Regions          int64                           `json:"regions"`
	Report           *Report                         `json:"report"`
	StepRecords      map[int]*telemetry.CritPathStep `json:"stepRecords"`
}

func loadParent(t *testing.T, name string) parentValues {
	t.Helper()
	raw, err := os.ReadFile("testdata/parent-" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var v parentValues
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// checkPinned feeds events through a fresh profile and compares every
// answer with the parent's.
func checkPinned(t *testing.T, want parentValues, cfg Config, events []core.Event, fix func(*parentValues)) {
	t.Helper()
	p := NewProfile(cfg)
	for _, e := range events {
		p.Emit(e)
	}
	if fix != nil {
		fix(&want)
	}

	// Table I.
	ranked := p.Ranked()
	if len(ranked) != len(want.Ranked) {
		t.Fatalf("%d ranked rows, want %d", len(ranked), len(want.Ranked))
	}
	for i, row := range ranked {
		w := want.Ranked[i]
		if row.Kernel.String() != w.Kernel || int64(row.Time) != w.Nanos || row.Percent != w.Percent {
			t.Errorf("Table I row %d = %v %d %v, want %v", i, row.Kernel, row.Time, row.Percent, w)
		}
	}
	if got := int64(p.Total()); got != want.TotalNanos {
		t.Errorf("Total = %d, want %d", got, want.TotalNanos)
	}
	for _, k := range core.Kernels() {
		if got := p.Calls(k); got != want.Calls[k.String()] {
			t.Errorf("Calls(%v) = %d, want %d", k, got, want.Calls[k.String()])
		}
	}

	// Table II.
	if got := p.ImbalanceRatio(); got != want.ImbalanceRatio {
		t.Errorf("ImbalanceRatio = %v, want %v", got, want.ImbalanceRatio)
	}
	for ph := core.Phase(1); ph <= core.NumPhases; ph++ {
		if got := p.PhaseImbalanceRatio(ph); got != want.PhaseRatios[ph.String()] {
			t.Errorf("PhaseImbalanceRatio(%v) = %v, want %v", ph, got, want.PhaseRatios[ph.String()])
		}
	}
	for _, k := range core.Kernels() {
		if got := p.KernelImbalanceRatio(k); got != want.KernelRatios[k.String()] {
			t.Errorf("KernelImbalanceRatio(%v) = %v, want %v", k, got, want.KernelRatios[k.String()])
		}
	}
	if got := p.BarrierWaitShare(want.Wall); got != want.BarrierWaitShare {
		t.Errorf("BarrierWaitShare = %v, want %v", got, want.BarrierWaitShare)
	}
	for site, waits := range want.WaitNanos {
		for tid, w := range waits {
			si := siteIndex(t, site)
			if got := int64(p.BarrierWaitAt(si, tid)); got != w {
				t.Errorf("BarrierWaitAt(%s, %d) = %d, want %d", site, tid, got, w)
			}
		}
	}
	_, crit, _ := p.segmentTotals()
	var ringCrit int64
	for _, c := range crit {
		ringCrit += c
	}
	if got := p.critical.Load(); got != ringCrit {
		t.Errorf("running critical total %d, the step ring's %d", got, ringCrit)
	}
	if want.Regions > 0 {
		if got := p.critical.Load(); got != want.CriticalNanos {
			t.Errorf("critical time %d, want the regions' %d", got, want.CriticalNanos)
		}
		if got := regions(p.Report(0)); got != want.Regions {
			t.Errorf("%d regions, want %d", got, want.Regions)
		}
	}

	// The critical-path report and its steplog records. The optional
	// Table I and Table II fields are new; they carry the values above.
	if want.Report == nil {
		return
	}
	r := p.Report(want.Wall)
	AddWhatIf(&r, 16*16*16)
	if r.ImbalanceRatio != want.ImbalanceRatio || r.BarrierWaitShare != want.BarrierWaitShare {
		t.Errorf("report rollup %v/%v, want %v/%v", r.ImbalanceRatio, r.BarrierWaitShare, want.ImbalanceRatio, want.BarrierWaitShare)
	}
	if want.TotalNanos == 0 && r.Kernels != nil {
		t.Errorf("report has kernel rows without kernel events: %+v", r.Kernels)
	}
	for i, k := range r.Kernels {
		if w := want.Ranked[i]; k.Kernel != w.Kernel || k.Seconds != time.Duration(w.Nanos).Seconds() || k.Percent != w.Percent {
			t.Errorf("report kernel row %d = %+v, want %v", i, k, w)
		}
	}
	r.Kernels, r.ImbalanceRatio, r.BarrierWaitShare = nil, 0, 0
	if !reflect.DeepEqual(r, *want.Report) {
		gotJSON, _ := json.MarshalIndent(r, "", "  ")
		wantJSON, _ := json.MarshalIndent(want.Report, "", "  ")
		t.Errorf("report differs\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	for step, w := range want.StepRecords {
		got, ok := p.StepRecord(step)
		if ok != (w != nil) || (ok && got != *w) {
			t.Errorf("StepRecord(%d) = %+v %v, want %+v", step, got, ok, w)
		}
	}
}

func siteIndex(t *testing.T, name string) core.BarrierSite {
	for si := core.BarrierSite(0); si < core.NumBarrierSites; si++ {
		if si.String() == name {
			return si
		}
	}
	t.Fatalf("no barrier site %q", name)
	return 0
}

func TestPinnedCubeStream(t *testing.T) {
	checkPinned(t, loadParent(t, "cube"), Config{Engine: "cube", Threads: 4}, cubeStream(), nil)
}

func TestPinnedSequentialStream(t *testing.T) {
	want := loadParent(t, "sequential")
	checkPinned(t, want, Config{Engine: "sequential"}, seqStream(), nil)

	// The former critical-path sink refused the sequential engine; its
	// report now carries Table I alone.
	p := NewProfile(Config{Engine: "sequential"})
	for _, e := range seqStream() {
		p.Emit(e)
	}
	r := p.Report(0)
	AddWhatIf(&r, 16*16*16)
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	if r.Steps != 5 || len(r.Kernels) != core.NumKernels || len(r.Sites)+len(r.Phases)+len(r.Chains)+len(r.WhatIf) > 0 {
		t.Errorf("sequential report: steps=%d, %d kernel rows, sites %v, phases %v, chains %v, what-if %v",
			r.Steps, len(r.Kernels), r.Sites, r.Phases, r.Chains, r.WhatIf)
	}
}

// TestPinnedOmpStream: every value but kernel 4's is the parent's. The
// spreading kernel runs two regions per step, whose slowest threads took
// 900 µs (thread 1) and 300 µs (thread 0); its critical time per step is
// now their sum, 1200 µs, where the parent kept the longest single event,
// 900 µs. So its critical seconds, per-step imbalance, the steps' critical
// totals, the per-thread slices its chain links show (thread 1: 900+100,
// thread 0: 600+300) and every what-if prediction move, and only they.
func TestPinnedOmpStream(t *testing.T) {
	checkPinned(t, loadParent(t, "omp"), Config{Engine: "omp", Threads: 4}, ompStream(), func(v *parentValues) {
		k4 := int(core.KSpreadForce) - 1
		v.Report.Phases[k4].CriticalSeconds = 0.0036
		v.Report.Phases[k4].ImbalanceRatio = 3600.0 / 2475
		v.Report.Sites[k4].PhaseImbalance = 3600.0 / 2475
		for step, sec := range map[int]float64{0: 0.00718, 1: 0.007187, 2: 0.007194} {
			v.StepRecords[step].Seconds = sec
		}
		for _, c := range v.Report.Chains {
			c.Links[k4].SliceMicros = 1000
			c.Links[k4+1].SliceMicros = 900
		}
		v.Report.WhatIf = pinnedOmpWhatIf
	})
}

// pinnedOmpWhatIf is the omp stream's what-if table with kernel 4 at
// 1200 µs per step: "measured" is the parent's 6.903 ms plus the 300 µs
// the second region adds, and "perfect balance" the parent's 6.2655 ms
// plus kernel 4's rescaled mean gain (990 − 742.5 µs).
var pinnedOmpWhatIf = []perfsim.WhatIfScenario{
	{Name: "measured", StepSeconds: 0.007203, MLUPS: 0.5686519505761488, SpeedupPct: 0},
	{Name: "threads ×2 (4→8)", StepSeconds: 0.0036095, MLUPS: 1.1347832109710485, SpeedupPct: 99.55672530821444},
	{Name: "perfect balance", StepSeconds: 0.006513, MLUPS: 0.6288960540457548, SpeedupPct: 10.594196222938756},
	{Name: "merge barrier after spread_force_from_fibers_to_fluid", StepSeconds: 0.007101, MLUPS: 0.5768201661737784, SpeedupPct: 1.4364174059991575},
	{Name: "merge barrier after compute_elastic_force_in_fibers", StepSeconds: 0.007141, MLUPS: 0.5735891331746255, SpeedupPct: 0.8682257386920744},
	{Name: "merge barrier after compute_bending_force_in_fibers", StepSeconds: 0.007201, MLUPS: 0.5688098875156229, SpeedupPct: 0.027773920288853837},
	{Name: "merge barrier after compute_stretching_force_in_fibers", StepSeconds: 0.007201, MLUPS: 0.5688098875156229, SpeedupPct: 0.027773920288853837},
	{Name: "merge barrier after compute_fluid_collision", StepSeconds: 0.007200999999999999, MLUPS: 0.5688098875156229, SpeedupPct: 0.027773920288853837},
	{Name: "merge barrier after stream_fluid_velocity_distribution", StepSeconds: 0.007200999999999999, MLUPS: 0.5688098875156229, SpeedupPct: 0.027773920288853837},
	{Name: "merge barrier after update_fluid_velocity", StepSeconds: 0.007200999999999999, MLUPS: 0.5688098875156229, SpeedupPct: 0.027773920288853837},
}
