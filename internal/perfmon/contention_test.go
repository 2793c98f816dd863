package perfmon

import (
	"bytes"
	"encoding/json"
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

// Compile-time checks that the profiles satisfy the solver observer
// interfaces.
var (
	_ cubesolver.ContentionObserver = (*ContentionProfile)(nil)
	_ omp.RegionObserver            = (*RegionProfile)(nil)
	_ cubesolver.CubeWorkObserver   = (*CubeHeatmap)(nil)
	_ cubesolver.PhaseObserver      = (*PhaseProfile)(nil)
)

func TestContentionProfileAccumulates(t *testing.T) {
	p := NewContentionProfile(2)
	p.BarrierWait(cubesolver.SiteAfterStream, 0, 10*time.Millisecond)
	p.BarrierWait(cubesolver.SiteAfterStream, 0, 5*time.Millisecond)
	p.BarrierWait(cubesolver.SiteEndOfStep, 1, 3*time.Millisecond)
	if got := p.BarrierWaitAt(cubesolver.SiteAfterStream, 0); got != 15*time.Millisecond {
		t.Fatalf("site wait = %v", got)
	}
	if got := p.ThreadBarrierWait(1); got != 3*time.Millisecond {
		t.Fatalf("thread wait = %v", got)
	}
	if got := p.BarrierWaitTotal(); got != 18*time.Millisecond {
		t.Fatalf("total wait = %v", got)
	}

	// Out-of-range records must be dropped, not crash.
	p.BarrierWait(cubesolver.BarrierSite(99), 0, time.Second)
	p.BarrierWait(cubesolver.SiteEndOfStep, 99, time.Second)
	if p.BarrierWaitTotal() != 18*time.Millisecond {
		t.Fatal("out-of-range barrier record was kept")
	}

	reg := telemetry.NewRegistry()
	p.Publish(reg, "cube")
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

func TestRegionProfileImbalance(t *testing.T) {
	p := NewRegionProfile(2)
	// Two regions of kernel 5: thread 0 busy 30ms total, thread 1 10ms.
	p.RegionDone(0, core.KComputeCollision, []time.Duration{20 * time.Millisecond, 5 * time.Millisecond})
	p.RegionDone(1, core.KComputeCollision, []time.Duration{10 * time.Millisecond, 5 * time.Millisecond})
	if p.Regions() != 2 {
		t.Fatalf("regions = %d", p.Regions())
	}
	if got := p.ThreadBusy(0); got != 30*time.Millisecond {
		t.Fatalf("thread 0 busy = %v", got)
	}
	// max=30ms, mean=20ms → ratio 1.5.
	if got := p.ImbalanceRatio(); got != 1.5 {
		t.Fatalf("imbalance ratio = %g, want 1.5", got)
	}
	// Waiting: (20−5)+(10−5)=20ms; critical 30ms; share 20/(2×30)=1/3.
	if got := p.BarrierWaitShare(); got < 0.33 || got > 0.34 {
		t.Fatalf("barrier wait share = %g, want ≈1/3", got)
	}
	if p.CriticalPath() != 30*time.Millisecond {
		t.Fatalf("critical path = %v", p.CriticalPath())
	}
}

func TestCubeHeatmapExports(t *testing.T) {
	h := NewCubeHeatmap(2, 1, 1, 4, 2)
	h.CubeWork(0, 0, cubesolver.PhaseCollideStream, 5*time.Millisecond)
	h.CubeWork(1, 1, cubesolver.PhaseCollideStream, 3*time.Millisecond)
	h.CubeWork(1, 1, cubesolver.PhaseUpdateVelocity, 2*time.Millisecond)
	h.CubeWork(0, 99, cubesolver.PhaseCopy, time.Second) // dropped
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
	if len(doc.Cubes) != 2 || len(doc.Phases) != cubesolver.NumPhases {
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
// then forwards to the wrapped observer — the controlled load skew of
// the self-test below.
type skewCubeWork struct {
	inner cubesolver.CubeWorkObserver
	slow  int
	delay time.Duration
}

func (s skewCubeWork) CubeWork(tid, c int, p cubesolver.Phase, d time.Duration) {
	if tid == s.slow && p == cubesolver.PhaseCollideStream {
		time.Sleep(s.delay)
	}
	if s.inner != nil {
		s.inner.CubeWork(tid, c, p, d)
	}
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

	phases := NewPhaseProfile(threads)
	cont := NewContentionProfile(threads)
	heat := NewCubeHeatmap(s.Fluid.CX, s.Fluid.CY, s.Fluid.CZ, s.Fluid.K, threads)
	s.Observer = phases
	s.Contention = cont
	s.CubeWork = skewCubeWork{inner: heat, slow: slow, delay: delay}
	s.Run(steps)

	// Load attribution: the slow thread dominates collide+stream.
	pt := phases.PhaseTime(cubesolver.PhaseCollideStream)
	argmax := 0
	for tid := range pt {
		if pt[tid] > pt[argmax] {
			argmax = tid
		}
	}
	if argmax != slow {
		t.Errorf("collide_stream argmax thread = %d (times %v), want slow thread %d", argmax, pt, slow)
	}
	if ratio := phases.PhaseImbalanceRatio(cubesolver.PhaseCollideStream); ratio < 1.5 {
		t.Errorf("collide_stream imbalance ratio = %g, want ≥ 1.5 with a pinned slow thread", ratio)
	}

	// Wait attribution: at the barrier after collide+stream the slow
	// thread waits least — it arrives last.
	argmin := 0
	for tid := 0; tid < threads; tid++ {
		if cont.BarrierWaitAt(cubesolver.SiteAfterStream, tid) < cont.BarrierWaitAt(cubesolver.SiteAfterStream, argmin) {
			argmin = tid
		}
	}
	if argmin != slow {
		waits := make([]time.Duration, threads)
		for tid := range waits {
			waits[tid] = cont.BarrierWaitAt(cubesolver.SiteAfterStream, tid)
		}
		t.Errorf("after_stream min-wait thread = %d (waits %v), want slow thread %d", argmin, waits, slow)
	}
	if cont.BarrierWaitTotal() == 0 {
		t.Error("no barrier waits recorded")
	}

	// The heatmap saw every cube in the collide+stream phase.
	for c := 0; c < heat.NumCubes(); c++ {
		if heat.CubeTime(c, cubesolver.PhaseCollideStream) == 0 {
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
	reg := NewRegionProfile(threads)
	s.Regions = reg
	const steps = 3
	s.Run(steps)

	// 9 parallel regions per step: 8 kernel regions (kernel 9 is an O(1)
	// swap — no region) plus lock-free spreading's reduction region.
	if got := reg.Regions(); got != 9*steps {
		t.Fatalf("regions = %d, want %d", got, 9*steps)
	}
	if reg.ImbalanceRatio() < 1 {
		t.Fatalf("imbalance ratio = %g, want ≥ 1", reg.ImbalanceRatio())
	}
	if share := reg.BarrierWaitShare(); share < 0 || share >= 1 {
		t.Fatalf("barrier wait share = %g, want in [0,1)", share)
	}
	if reg.KernelBusy(core.KComputeCollision)[0] == 0 {
		t.Fatal("no busy time recorded for the collision kernel on thread 0")
	}
}

// phaseRecorderMu guards nothing here — it exists to double-check the
// registry-backed profiles stay safe when hammered concurrently (the
// -race companion to the unit tests above).
func TestProfilesConcurrentUse(t *testing.T) {
	kp := NewKernelProfileIn(nil)
	pp := NewPhaseProfile(8)
	cp := NewContentionProfile(8)
	var wg sync.WaitGroup
	for tid := 0; tid < 8; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				kp.KernelDone(i, core.KComputeCollision, time.Microsecond)
				pp.PhaseDone(i, tid, cubesolver.PhaseCollideStream, time.Microsecond)
				cp.BarrierWait(cubesolver.SiteEndOfStep, tid, time.Microsecond)
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
