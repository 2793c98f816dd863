package perfmon

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/engine"
	"lbmib/internal/telemetry"
)

// feedStep feeds one synthetic cube-engine step into p: per-thread
// phase slices (busy[tid] for the given phase, a fixed 1ms for the
// others), then one crossing of each of the three minimal-schedule
// barrier sites with lastTid arriving last and everyone else waiting
// the gap to it.
func feedStep(p *Profile, step int, threads int, phase core.Phase, busy []time.Duration, lastTid int, crossing *uint64) {
	for ph := core.Phase(1); ph <= core.NumPhases; ph++ {
		for tid := 0; tid < threads; tid++ {
			d := time.Millisecond
			if ph == phase {
				d = busy[tid]
			}
			p.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: ph, D: d})
		}
	}
	var maxBusy time.Duration
	for _, d := range busy {
		if d > maxBusy {
			maxBusy = d
		}
	}
	for _, site := range []core.BarrierSite{
		core.SiteAfterStream, core.SiteAfterVelocity, core.SiteEndOfStep,
	} {
		c := *crossing
		*crossing++
		rank := 0
		for tid := 0; tid < threads; tid++ {
			if tid == lastTid {
				continue
			}
			p.Emit(core.Event{Kind: core.BarrierArrive, Step: step, Site: site, Tid: tid, Rank: rank, Crossing: c, D: maxBusy - busy[tid]})
			rank++
		}
		p.Emit(core.Event{Kind: core.BarrierArrive, Step: step, Site: site, Tid: lastTid, Rank: threads - 1, Crossing: c, Last: true})
	}
}

func siteByName(t *testing.T, r Report, name string) SiteReport {
	t.Helper()
	for _, sr := range r.Sites {
		if sr.Site == name {
			return sr
		}
	}
	t.Fatalf("report has no site %q (sites: %+v)", name, r.Sites)
	return SiteReport{}
}

// TestClassifyStragglerSynthetic pins the persistent-straggler class:
// the same thread is always slow, always last, with waits far above
// the topology cutoff.
func TestClassifyStragglerSynthetic(t *testing.T) {
	const threads, slow = 4, 2
	p := NewProfile(Config{Engine: "cube", Threads: threads})
	var crossing uint64
	busy := []time.Duration{time.Millisecond, time.Millisecond, 3 * time.Millisecond, time.Millisecond}
	for step := 0; step < 20; step++ {
		feedStep(p, step, threads, core.PhaseCollideStream, busy, slow, &crossing)
	}
	r := p.Report(0)
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	sr := siteByName(t, r, "after_stream")
	if sr.Cause != CauseStraggler {
		t.Errorf("after_stream classified %q, want %q (site: %+v)", sr.Cause, CauseStraggler, sr)
	}
	if sr.DominantTid != slow {
		t.Errorf("dominant tid %d, want %d", sr.DominantTid, slow)
	}
	if sr.DominantShare != 1 {
		t.Errorf("dominant share %v, want 1 (same thread always last)", sr.DominantShare)
	}
	if sr.Crossings != 20 {
		t.Errorf("crossings %d, want 20", sr.Crossings)
	}
}

// TestClassifyRotatingImbalance pins the data-imbalance class: the
// heavy thread rotates with ownership (so no single thread dominates),
// but every step one thread is 2× slower — the per-step Σmax/Σmean
// ratio the step ring preserves catches what cumulative busy totals
// average away.
func TestClassifyRotatingImbalance(t *testing.T) {
	const threads = 4
	p := NewProfile(Config{Engine: "cube", Threads: threads})
	var crossing uint64
	for step := 0; step < 20; step++ {
		heavy := step % threads
		busy := make([]time.Duration, threads)
		for tid := range busy {
			busy[tid] = time.Millisecond
		}
		busy[heavy] = 2 * time.Millisecond
		feedStep(p, step, threads, core.PhaseCollideStream, busy, heavy, &crossing)
	}
	r := p.Report(0)
	sr := siteByName(t, r, "after_stream")
	if sr.Cause != CauseImbalance {
		t.Errorf("after_stream classified %q, want %q (site: %+v)", sr.Cause, CauseImbalance, sr)
	}
	if sr.DominantShare >= StragglerShare {
		t.Errorf("dominant share %v should stay below %v under rotation", sr.DominantShare, StragglerShare)
	}
	if sr.PhaseImbalance < ImbalanceRatio {
		t.Errorf("phase imbalance %v, want ≥ %v", sr.PhaseImbalance, ImbalanceRatio)
	}
	// Cumulative busy is balanced under rotation — only the per-step
	// ratio exposes it; pin that the correlated phase's ratio is ~1.6.
	for _, pr := range r.Phases {
		if pr.Phase == "collide_stream" && (pr.ImbalanceRatio < 1.4 || pr.ImbalanceRatio > 1.8) {
			t.Errorf("collide_stream per-step imbalance %v, want ≈1.6", pr.ImbalanceRatio)
		}
	}
}

// TestClassifyTopology pins the barrier-topology class: near-uniform
// arrivals (sub-cutoff waits) even though crossings are frequent.
func TestClassifyTopology(t *testing.T) {
	const threads = 4
	p := NewProfile(Config{Engine: "cube", Threads: threads})
	var crossing uint64
	busy := []time.Duration{time.Millisecond, time.Millisecond + 2*time.Microsecond, time.Millisecond + time.Microsecond, time.Millisecond + 3*time.Microsecond}
	for step := 0; step < 20; step++ {
		feedStep(p, step, threads, core.PhaseCollideStream, busy, 3, &crossing)
	}
	sr := siteByName(t, p.Report(0), "after_stream")
	if sr.Cause != CauseTopology {
		t.Errorf("after_stream classified %q, want %q (site: %+v)", sr.Cause, CauseTopology, sr)
	}
}

// TestChainsAndStepRecord checks the per-step outputs: the crossing
// ring reconstructs the last-arriver chain in release order, and
// StepRecord names the dominant phase and thread.
func TestChainsAndStepRecord(t *testing.T) {
	const threads, slow = 2, 1
	p := NewProfile(Config{Engine: "cube", Threads: threads})
	var crossing uint64
	busy := []time.Duration{time.Millisecond, 4 * time.Millisecond}
	for step := 0; step < 5; step++ {
		feedStep(p, step, threads, core.PhaseCollideStream, busy, slow, &crossing)
	}
	r := p.Report(0)
	if len(r.Chains) == 0 {
		t.Fatal("no chains reconstructed")
	}
	last := r.Chains[len(r.Chains)-1]
	if len(last.Links) != 3 {
		t.Fatalf("step %d chain has %d links, want 3 (%+v)", last.Step, len(last.Links), last.Links)
	}
	wantOrder := []string{"after_stream", "after_velocity", "end_of_step"}
	for i, l := range last.Links {
		if l.Site != wantOrder[i] {
			t.Errorf("link %d is %s, want %s (release order)", i, l.Site, wantOrder[i])
		}
		if l.Tid != slow {
			t.Errorf("link %d names tid %d, want %d", i, l.Tid, slow)
		}
	}
	// The after_stream link should carry the straggler's 4ms slice from
	// the timeline ring.
	if got := last.Links[0].SliceMicros; got < 3500 || got > 4500 {
		t.Errorf("after_stream slice %vµs, want ≈4000", got)
	}

	rec, ok := p.StepRecord(4)
	if !ok {
		t.Fatal("StepRecord(4) missed")
	}
	if rec.Phase != "collide_stream" || rec.Tid != slow {
		t.Errorf("step record %+v, want phase collide_stream tid %d", rec, slow)
	}
	if rec.Seconds <= 0 {
		t.Errorf("step record seconds %v, want > 0", rec.Seconds)
	}
	if _, ok := p.StepRecord(999); ok {
		t.Error("StepRecord(999) hit an absent step")
	}
}

// TestStragglerEndToEnd reuses TestSkewSelfTest's pinned-slow-thread
// pattern on the real cube solver: a probe sleeps on one thread's
// collide_stream completion, making that thread the persistent last
// arriver at the following barrier — the profiler must name it.
func TestStragglerEndToEnd(t *testing.T) {
	const (
		threads = 4
		slow    = 1
		steps   = 6
	)
	p := NewProfile(Config{Engine: "cube", Threads: threads})
	s, err := engine.NewCube(core.Config{NX: 16, NY: 8, NZ: 8, Tau: 0.8, BodyForce: [3]float64{1e-6, 0, 0}}, 4, threads)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Probe = core.Probes{p, slowPhase{tid: slow, phase: core.PhaseCollideStream, delay: 5 * time.Millisecond}}
	s.Run(steps)

	r := p.Report(0)
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	sr := siteByName(t, r, "after_stream")
	if sr.Crossings != steps {
		t.Fatalf("after_stream crossed %d times, want %d", sr.Crossings, steps)
	}
	if sr.Cause != CauseStraggler {
		t.Errorf("after_stream classified %q, want %q (site: %+v)", sr.Cause, CauseStraggler, sr)
	}
	if sr.DominantTid != slow {
		t.Errorf("dominant tid %d, want pinned slow thread %d", sr.DominantTid, slow)
	}
}

// slowPhase sleeps on one thread after one phase — the injection runs
// on the worker's own goroutine, delaying its next barrier arrival.
type slowPhase struct {
	tid   int
	phase core.Phase
	delay time.Duration
}

func (s slowPhase) Emit(e core.Event) {
	if e.Kind == core.PhaseDone && e.Tid == s.tid && e.Phase == s.phase {
		time.Sleep(s.delay)
	}
}

// TestRegionMode checks the omp vocabulary: RegionDone feeds both the
// kernel segments and synthesized per-region join sites, with the
// busiest thread as last arriver.
func TestRegionMode(t *testing.T) {
	const threads = 4
	p := NewProfile(Config{Engine: "omp", Threads: threads})
	busy := []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond, 3 * time.Millisecond}
	for step := 0; step < 10; step++ {
		for k := core.Kernel(1); k <= core.NumKernels; k++ {
			p.Emit(core.Event{Kind: core.RegionDone, Step: step, Kernel: k, Busy: busy})
		}
	}
	r := p.Report(0)
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	sr := siteByName(t, r, "region_compute_fluid_collision")
	if sr.Cause != CauseStraggler || sr.DominantTid != 3 {
		t.Errorf("collision region: cause %q tid %d, want %q tid 3", sr.Cause, sr.DominantTid, CauseStraggler)
	}
	if len(r.Chains) == 0 {
		t.Error("region mode reconstructed no chains")
	}
	// Phase-vocabulary input must be ignored in region mode.
	before := p.Report(0)
	p.Emit(core.Event{Kind: core.PhaseDone, Phase: core.PhaseCollideStream, D: time.Second})
	after := p.Report(0)
	for i := range after.Phases {
		if after.Phases[i].CriticalSeconds != before.Phases[i].CriticalSeconds {
			t.Error("PhaseDone leaked into region mode")
		}
	}
}

// TestReportJSONRoundTrip pins the schema contract: the indented JSON
// the facade writes into bundles decodes into an equal-enough report
// that Validate accepts.
func TestReportJSONRoundTrip(t *testing.T) {
	p := NewProfile(Config{Engine: "cube", Threads: 2})
	var crossing uint64
	feedStep(p, 0, 2, core.PhaseCollideStream, []time.Duration{time.Millisecond, 2 * time.Millisecond}, 1, &crossing)
	r := p.Report(0)
	AddWhatIf(&r, 16*16*16)
	if len(r.WhatIf) == 0 {
		t.Fatal("AddWhatIf produced no scenarios")
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"schema": "lbmib-critpath/v1"`) {
		t.Error("JSON lacks the schema marker verify.sh greps for")
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := Validate(back); err != nil {
		t.Fatal(err)
	}
	var render bytes.Buffer
	Render(&render, back)
	for _, want := range []string{"barrier site", "what-if", "after_stream"} {
		if !strings.Contains(render.String(), want) {
			t.Errorf("rendered report lacks %q", want)
		}
	}
}

// TestPublish checks the critical-path metric families appear with the
// right labels.
func TestPublish(t *testing.T) {
	p := NewProfile(Config{Engine: "cube", Threads: 2})
	var crossing uint64
	feedStep(p, 0, 2, core.PhaseCollideStream, []time.Duration{time.Millisecond, 2 * time.Millisecond}, 1, &crossing)
	reg := telemetry.NewRegistry()
	p.Publish(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lbmib_critical_path_seconds{engine="cube",phase="collide_stream"}`,
		`lbmib_last_arriver_total{engine="cube",site="after_stream",tid="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %s\n%s", want, out)
		}
	}
	p.Publish(nil) // nil registry is a no-op, not a panic
}

// TestProfilerRace hammers the profiler from 8 threads — phase slices,
// barrier arrivals, and concurrent Report/StepRecord/Publish readers —
// under -race this proves the ring and accumulator discipline.
func TestProfilerRace(t *testing.T) {
	const threads = 8
	p := NewProfile(Config{Engine: "cube", Threads: threads, Tracer: telemetry.NewTracer()})
	var wg sync.WaitGroup
	var crossing atomic64
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for step := 0; step < 200; step++ {
				for ph := core.Phase(1); ph <= core.NumPhases; ph++ {
					p.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: ph, D: time.Microsecond})
				}
				c := crossing.next()
				p.Emit(core.Event{Kind: core.BarrierArrive, Step: step, Site: core.SiteEndOfStep, Tid: tid, Rank: tid, Crossing: c, D: 200 * time.Microsecond, Last: tid == step%threads})
			}
		}(tid)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		reg := telemetry.NewRegistry()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := p.Report(0)
			if err := Validate(r); err != nil {
				t.Error(err)
			}
			p.StepRecord(100)
			p.Publish(reg)
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
}

// atomic64 is a tiny helper handing out unique crossing ids.
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) next() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	v := a.v
	a.v++
	return v
}

// TestCriticalTimeSumsSpreadRegions pins the region rule: when a kernel
// runs as several regions per step — ompStream's spreading runs as two —
// its critical time is the sum of each region's slowest thread, not the
// longest single region.
func TestCriticalTimeSumsSpreadRegions(t *testing.T) {
	p := NewProfile(Config{Engine: "omp", Threads: 4})
	var want, longest time.Duration
	for _, e := range ompStream() {
		p.Emit(e)
		if e.Kind == core.RegionDone && e.Kernel == core.KSpreadForce {
			var slowest time.Duration
			for _, d := range e.Busy {
				slowest = max(slowest, d)
			}
			want += slowest
			longest = max(longest, slowest)
		}
	}
	pr := p.Report(0).Phases[core.KSpreadForce-1]
	if got := time.Duration(pr.CriticalSeconds * 1e9).Round(us); got != want {
		t.Errorf("spread_force critical %v, want the regions' maxima summed, %v", got, want)
	}
	if want <= 3*longest {
		t.Fatalf("stream does not separate the rules: Σ region maxima %v, 3 steps × longest region %v", want, 3*longest)
	}
}

// TestCriticalTimeTaskflowTasks pins the phase rule for a schedule that
// reports a phase in several slices per thread, one per task (as the
// retired task-scheduled engine did): a step's critical time is the
// largest per-thread sum of slices, and that thread is the step's slowest.
func TestCriticalTimeTaskflowTasks(t *testing.T) {
	tasks := [][]time.Duration{{100 * us, 200 * us, 300 * us}, {400 * us, 150 * us, 100 * us}}
	p := NewProfile(Config{Engine: "taskflow", Threads: 2})
	for step := 0; step < 2; step++ {
		for i := 0; i < 3; i++ {
			for tid, ts := range tasks {
				p.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: core.PhaseCollideStream, D: ts[i]})
			}
		}
	}
	pr := p.Report(0).Phases[core.PhaseCollideStream-1]
	if pr.CriticalSeconds != 1300e-6 || pr.MeanSeconds != 1250e-6 {
		t.Errorf("collide_stream critical %v mean %v, want 2 × 650µs and 2 × 625µs", pr.CriticalSeconds, pr.MeanSeconds)
	}
	if rec, ok := p.StepRecord(1); !ok || rec.Tid != 1 || rec.Seconds != 650e-6 {
		t.Errorf("StepRecord(1) = %+v %v, want thread 1 at 650µs", rec, ok)
	}
}

// TestRollupAllocationFree: the facade reads the Table II rollup after
// every observed step.
func TestRollupAllocationFree(t *testing.T) {
	for _, c := range []struct {
		engine string
		events []core.Event
	}{{"cube", cubeStream()}, {"omp", ompStream()}} {
		p := NewProfile(Config{Engine: c.engine, Threads: 4})
		for _, e := range c.events {
			p.Emit(e)
		}
		if n := testing.AllocsPerRun(100, func() { p.ImbalanceRatio() }); n != 0 {
			t.Errorf("%s: ImbalanceRatio allocates %v times", c.engine, n)
		}
		if n := testing.AllocsPerRun(100, func() { p.BarrierWaitShare(time.Second) }); n != 0 {
			t.Errorf("%s: BarrierWaitShare allocates %v times", c.engine, n)
		}
	}
}
