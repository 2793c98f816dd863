package perfmon

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/fiber"
	"lbmib/internal/omp"
	"lbmib/internal/telemetry"
)

// Compile-time checks that the sinks satisfy the event contract.
var (
	_ core.Probe = (*Profile)(nil)
	_ core.Probe = (*CubeHeatmap)(nil)
)

// wait feeds p one barrier arrival carrying only what a Profile keeps.
func wait(p *Profile, site core.BarrierSite, tid int, w time.Duration) {
	p.Emit(core.Event{Kind: core.BarrierArrive, Site: site, Tid: tid, D: w})
}

func TestContentionProfileAccumulates(t *testing.T) {
	p := NewProfile(Config{Engine: "cube", Threads: 2})
	wait(p, core.SiteAfterStream, 0, 10*time.Millisecond)
	wait(p, core.SiteAfterStream, 0, 5*time.Millisecond)
	wait(p, core.SiteEndOfStep, 1, 3*time.Millisecond)
	if got := p.BarrierWaitAt(core.SiteAfterStream, 0); got != 15*time.Millisecond {
		t.Fatalf("site wait = %v", got)
	}
	if got := p.BarrierWaitAt(core.SiteEndOfStep, 1); got != 3*time.Millisecond {
		t.Fatalf("thread 1 wait = %v", got)
	}
	if got := p.BarrierWaitTotal(); got != 18*time.Millisecond {
		t.Fatalf("total wait = %v", got)
	}

	// Out-of-range records must be dropped, not crash.
	wait(p, core.BarrierSite(99), 0, time.Second)
	wait(p, core.SiteEndOfStep, 99, time.Second)
	if p.BarrierWaitTotal() != 18*time.Millisecond {
		t.Fatal("out-of-range barrier record was kept")
	}
	// 18ms of waits over 2 threads × 90ms of wall time.
	if got := p.BarrierWaitShare(90 * time.Millisecond); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("barrier wait share = %g, want 0.1", got)
	}

	reg := telemetry.NewRegistry()
	p.Publish(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	const want = `lbmib_barrier_wait_seconds{engine="cube",site="after_stream",thread="0"} 0.015`
	if !strings.Contains(text, want) {
		t.Errorf("exposition missing %q in:\n%s", want, text)
	}
}

// regions counts the parallel regions a region-vocabulary profile has
// recorded: each is one crossing of its kernel's join site.
func regions(r Report) int64 {
	var n int64
	for _, sr := range r.Sites {
		n += sr.Crossings
	}
	return n
}

// criticalSeconds sums the report's per-segment critical time.
func criticalSeconds(r Report) float64 {
	var s float64
	for _, pr := range r.Phases {
		s += pr.CriticalSeconds
	}
	return s
}

func TestRegionProfileImbalance(t *testing.T) {
	p := NewProfile(Config{Engine: "omp", Threads: 2})
	// Two regions of kernel 5: thread 0 busy 30ms total, thread 1 10ms.
	p.Emit(core.Event{Kind: core.RegionDone, Kernel: core.KComputeCollision, Busy: []time.Duration{20 * time.Millisecond, 5 * time.Millisecond}})
	p.Emit(core.Event{Kind: core.RegionDone, Step: 1, Kernel: core.KComputeCollision, Busy: []time.Duration{10 * time.Millisecond, 5 * time.Millisecond}})
	if n := regions(p.Report(0)); n != 2 {
		t.Fatalf("regions = %d", n)
	}
	if got := p.ThreadTime(0); got != 30*time.Millisecond {
		t.Fatalf("thread 0 busy = %v", got)
	}
	// max=30ms, mean=20ms → ratio 1.5.
	if got := p.ImbalanceRatio(); got != 1.5 {
		t.Fatalf("imbalance ratio = %g, want 1.5", got)
	}
	// Waiting: (20−5)+(10−5)=20ms; critical 30ms; share 20/(2×30)=1/3.
	if got := p.BarrierWaitShare(0); got < 0.33 || got > 0.34 {
		t.Fatalf("barrier wait share = %g, want ≈1/3", got)
	}
	if c := criticalSeconds(p.Report(0)); c != 0.03 {
		t.Fatalf("critical path = %vs", c)
	}
}

func TestCubeHeatmapExports(t *testing.T) {
	h := NewCubeHeatmap(2, 1, 1, 4, 2)
	h.Emit(core.Event{Kind: core.BlockDone, Phase: core.PhaseCollideStream, D: 5 * time.Millisecond})
	h.Emit(core.Event{Kind: core.BlockDone, Tid: 1, Block: 1, Phase: core.PhaseCollideStream, D: 3 * time.Millisecond})
	h.Emit(core.Event{Kind: core.BlockDone, Tid: 1, Block: 1, Phase: core.PhaseUpdateVelocity, D: 2 * time.Millisecond})
	h.Emit(core.Event{Kind: core.BlockDone, Block: 99, Phase: core.PhaseCopy, D: time.Second}) // dropped
	if h.CubeTotal(1) != 5*time.Millisecond || h.Owner(1) != 1 || h.Owner(0) != 0 {
		t.Fatalf("accumulation wrong: total=%v owners=%d,%d", h.CubeTotal(1), h.Owner(0), h.Owner(1))
	}

	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string   `json:"schema"`
		Phases []string `json:"phases"`
		Cubes  []struct {
			Cube       int     `json:"cube"`
			Owner      int     `json:"owner"`
			TotalNanos int64   `json:"totalNanos"`
			PhaseNanos []int64 `json:"phaseNanos"`
		} `json:"cubes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != HeatmapSchema {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if len(doc.Cubes) != 2 || len(doc.Phases) != core.NumPhases {
		t.Fatalf("dims: %d cubes, %d phases", len(doc.Cubes), len(doc.Phases))
	}
	if doc.Cubes[1].TotalNanos != int64(5*time.Millisecond) {
		t.Fatalf("cube 1 total = %d", doc.Cubes[1].TotalNanos)
	}

	buf.Reset()
	if err := h.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 cubes
		t.Fatalf("TSV has %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "cube\tcx\tcy\tcz\towner\t") {
		t.Fatalf("TSV header = %q", lines[0])
	}

	tr := telemetry.NewTracer()
	h.EmitCounters(tr)
	if tr.Len() != 2 { // one counter sample per thread
		t.Fatalf("tracer has %d events, want 2", tr.Len())
	}
}

// skewCubeWork delays one pinned thread's collide+stream work per cube,
// then forwards to the sinks — the controlled load skew of the self-test
// below.
type skewCubeWork struct {
	core.Probes
	slow  int
	delay time.Duration
}

func (s skewCubeWork) Emit(e core.Event) {
	if e.Kind == core.BlockDone && e.Tid == s.slow && e.Phase == core.PhaseCollideStream {
		time.Sleep(s.delay)
	}
	s.Probes.Emit(e)
}

// TestSkewSelfTest pins an artificially slow thread in a real 8-thread
// cube solver and asserts the attribution flags the right thread: the
// slow thread has the largest collide+stream phase time (imbalance ratio
// well above 1) and the *smallest* barrier wait at the following barrier
// site — everyone else accumulated wait waiting for it. Run under -race
// this also exercises the instrumented barrier path from 8 threads.
func TestSkewSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real solver with injected delays")
	}
	const (
		threads = 8
		slow    = 3
		steps   = 3
		delay   = 2 * time.Millisecond // per owned cube, ≈16ms skew per step
	)
	s, err := cubesolver.NewSolver(cubesolver.Config{
		Config:   core.Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7},
		CubeSize: 4, Threads: threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	prof := NewProfile(Config{Engine: "cube", Threads: threads})
	phases, cont := prof, prof
	heat := NewCubeHeatmap(s.Fluid.CX, s.Fluid.CY, s.Fluid.CZ, s.Fluid.K, threads)
	s.Probe = skewCubeWork{Probes: core.Probes{prof, heat}, slow: slow, delay: delay}
	s.Run(steps)

	// Load attribution: the slow thread dominates collide+stream.
	pt := phases.Report(0).Phases[core.PhaseCollideStream-1].BusySeconds
	argmax := 0
	for tid := range pt {
		if pt[tid] > pt[argmax] {
			argmax = tid
		}
	}
	if argmax != slow {
		t.Errorf("collide_stream argmax thread = %d (times %v), want slow thread %d", argmax, pt, slow)
	}
	if ratio := phases.PhaseImbalanceRatio(core.PhaseCollideStream); ratio < 1.5 {
		t.Errorf("collide_stream imbalance ratio = %g, want ≥ 1.5 with a pinned slow thread", ratio)
	}

	// Wait attribution: at the barrier after collide+stream the slow
	// thread waits least — it arrives last.
	argmin := 0
	for tid := 0; tid < threads; tid++ {
		if cont.BarrierWaitAt(core.SiteAfterStream, tid) < cont.BarrierWaitAt(core.SiteAfterStream, argmin) {
			argmin = tid
		}
	}
	if argmin != slow {
		waits := make([]time.Duration, threads)
		for tid := range waits {
			waits[tid] = cont.BarrierWaitAt(core.SiteAfterStream, tid)
		}
		t.Errorf("after_stream min-wait thread = %d (waits %v), want slow thread %d", argmin, waits, slow)
	}
	if cont.BarrierWaitTotal() == 0 {
		t.Error("no barrier waits recorded")
	}

	// The heatmap saw every cube in the collide+stream phase.
	for c := 0; c < heat.NumCubes(); c++ {
		if heat.CubeTime(c, core.PhaseCollideStream) == 0 {
			t.Fatalf("cube %d has no collide_stream samples", c)
		}
	}
}

// TestRegionProfileRealSolver attaches the region profile to the real
// loop-parallel engine and checks per-kernel busy accounting arrives for
// every kernel region.
func TestRegionProfileRealSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real solver")
	}
	const threads = 4
	sh := fiber.NewSheet(fiber.Params{NumFibers: 8, NodesPerFiber: 8, Width: 7, Height: 7,
		Origin: fiber.Vec3{6, 4.3, 4.6}, Ks: 0.05, Kb: 0.001})
	s, err := omp.NewSolver(omp.Config{
		Config:  core.Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, Sheet: sh},
		Threads: threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := NewProfile(Config{Engine: "omp", Threads: threads})
	s.Probe = reg
	const steps = 3
	s.Run(steps)

	// 9 parallel regions per step: 8 kernel regions (kernel 9 is an O(1)
	// swap — no region) plus lock-free spreading's reduction region.
	if got := regions(reg.Report(0)); got != 9*steps {
		t.Fatalf("regions = %d, want %d", got, 9*steps)
	}
	if reg.ImbalanceRatio() < 1 {
		t.Fatalf("imbalance ratio = %g, want ≥ 1", reg.ImbalanceRatio())
	}
	if share := reg.BarrierWaitShare(0); share < 0 || share >= 1 {
		t.Fatalf("barrier wait share = %g, want in [0,1)", share)
	}
	if reg.Report(0).Phases[core.KComputeCollision-1].BusySeconds[0] == 0 {
		t.Fatal("no busy time recorded for the collision kernel on thread 0")
	}
}

// phaseRecorderMu guards nothing here — it exists to double-check the
// registry-backed profiles stay safe when hammered concurrently (the
// -race companion to the unit tests above).
func TestProfilesConcurrentUse(t *testing.T) {
	prof := NewProfile(Config{Engine: "cube", Threads: 8})
	kp, pp, cp := prof, prof, prof
	var wg sync.WaitGroup
	for tid := 0; tid < 8; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				kp.Emit(core.Event{Kind: core.KernelDone, Step: i, Kernel: core.KComputeCollision, D: time.Microsecond})
				pp.Emit(core.Event{Kind: core.PhaseDone, Step: i, Tid: tid, Phase: core.PhaseCollideStream, D: time.Microsecond})
				wait(cp, core.SiteEndOfStep, tid, time.Microsecond)
			}
		}(tid)
	}
	wg.Wait()
	if kp.Calls(core.KComputeCollision) != 1600 {
		t.Fatalf("kernel calls = %d", kp.Calls(core.KComputeCollision))
	}
	if pp.ImbalanceRatio() != 1 {
		t.Fatalf("uniform load imbalance ratio = %g, want 1", pp.ImbalanceRatio())
	}
	if got := cp.BarrierWaitTotal(); got != 1600*time.Microsecond {
		t.Fatalf("barrier wait total = %v, want 1.6ms", got)
	}
}
