package perfmon

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/fiber"
	"lbmib/internal/omp"
	"lbmib/internal/par"
	"lbmib/internal/telemetry"
)

// Compile-time check that the sink satisfies the event contract.
var _ core.Probe = (*Profile)(nil)

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

// TestSkewSelfTest gives one thread of a real 8-thread cube solver real
// extra work and asserts the attribution flags the right thread. A dense
// sheet lies wholly inside the box of fluid the slow thread owns, so
// every stencil of kernel 4 lands in that box alone: every thread walks
// the fiber nodes, but only the slow thread's owner-computes spread — the
// head of its collide+stream phase — spreads any of them. The slow
// thread has the largest collide+stream phase time (imbalance ratio well
// above 1) and the *smallest* barrier wait at the following barrier site
// — everyone else accumulated wait waiting for it. Run under -race this
// also exercises the instrumented barrier path from 8 threads.
func TestSkewSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real solver")
	}
	const (
		threads = 8
		slow    = 3
		steps   = 3
		n, k    = 16, 4
		side    = 128 // fiber nodes per sheet side, all spread by the slow thread
	)
	// The slow thread's box, in lattice nodes. A stencil based at b
	// covers b…b+3 with b = ⌊x⌋−1 (ibm.StencilBase), so a node at
	// x ∈ [lo+1, hi−2) on every axis spreads into the box alone.
	m := par.CubeMap{CX: n / k, CY: n / k, CZ: n / k, Mesh: par.NewMesh(threads)}
	clo, chi := m.Box(slow)
	var origin fiber.Vec3
	for a := range origin {
		origin[a] = float64(clo[a]*k) + 1.5
	}
	w := float64((chi[0]-clo[0])*k) - 4 // origin+w < hi−2 on every axis of the cubic box
	sh := fiber.NewSheet(fiber.Params{NumFibers: side, NodesPerFiber: side, Width: w, Height: w,
		Origin: origin, Ks: 0.05, Kb: 0.001})
	s, err := cubesolver.NewSolver(cubesolver.Config{
		Config:   core.Config{NX: n, NY: n, NZ: n, Tau: 0.7, Sheet: sh},
		CubeSize: k, Threads: threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if lo, hi := s.Map.Box(slow); lo != clo || hi != chi {
		t.Fatalf("slow thread's cubes %v–%v, the sheet was placed in %v–%v", lo, hi, clo, chi)
	}

	prof := NewProfile(Config{Engine: "cube", Threads: threads})
	phases, cont := prof, prof
	s.Probe = prof
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

	// 7 parallel regions per step, one per kernel: kernels 5 and 6 are
	// one in-place region, and kernel 9 has nothing to copy — neither 6
	// nor 9 has a region.
	if got := regions(reg.Report(0)); got != 7*steps {
		t.Fatalf("regions = %d, want %d", got, 7*steps)
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
