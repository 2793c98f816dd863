package perfmon

import (
	"math"
	"strings"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
)

func TestKernelProfileAccumulates(t *testing.T) {
	p := NewProfile(Config{})
	p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KComputeCollision, D: 30 * time.Millisecond})
	p.Emit(core.Event{Kind: core.KernelDone, Step: 1, Kernel: core.KComputeCollision, D: 50 * time.Millisecond})
	p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KStreamDistribution, D: 20 * time.Millisecond})
	if got := p.KernelTime(core.KComputeCollision); got != 80*time.Millisecond {
		t.Fatalf("collision time = %v", got)
	}
	if p.Calls(core.KComputeCollision) != 2 {
		t.Fatalf("collision calls = %d", p.Calls(core.KComputeCollision))
	}
	if p.Total() != 100*time.Millisecond {
		t.Fatalf("total = %v", p.Total())
	}
}

func TestKernelProfileIgnoresBogusKernels(t *testing.T) {
	p := NewProfile(Config{})
	p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.Kernel(0), D: time.Second})
	p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.Kernel(99), D: time.Second})
	if p.Total() != 0 {
		t.Fatal("bogus kernel indices were recorded")
	}
}

func TestRankedOrderAndPercent(t *testing.T) {
	p := NewProfile(Config{})
	p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KComputeCollision, D: 730 * time.Millisecond})
	p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KUpdateVelocity, D: 126 * time.Millisecond})
	p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KCopyDistribution, D: 59 * time.Millisecond})
	p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KStreamDistribution, D: 54 * time.Millisecond})
	rows := p.Ranked()
	if rows[0].Kernel != core.KComputeCollision {
		t.Fatalf("top kernel = %v", rows[0].Kernel)
	}
	if rows[1].Kernel != core.KUpdateVelocity || rows[2].Kernel != core.KCopyDistribution {
		t.Fatalf("rank order wrong: %v, %v", rows[1].Kernel, rows[2].Kernel)
	}
	if math.Abs(rows[0].Percent-75.33) > 0.1 {
		t.Fatalf("top percent = %g, want ≈75.3", rows[0].Percent)
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Percent
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("percents sum to %g", sum)
	}
}

// BestRanked ranks by each kernel's minimum over the profiles: a kernel
// inflated in one batch keeps the rank its other batches give it.
func TestBestRankedTakesPerKernelMinimum(t *testing.T) {
	kernels := func(collide, copy time.Duration) *Profile {
		p := NewProfile(Config{})
		p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KComputeCollision, D: collide})
		p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KCopyDistribution, D: copy})
		return p
	}
	rows := BestRanked(
		kernels(30*time.Millisecond, 90*time.Millisecond), // copy descheduled
		kernels(40*time.Millisecond, 10*time.Millisecond),
		kernels(50*time.Millisecond, 20*time.Millisecond), // collide descheduled
	)
	if rows[0].Kernel != core.KComputeCollision || rows[0].Time != 30*time.Millisecond {
		t.Fatalf("top row %v %v, want collision at its 30ms minimum", rows[0].Kernel, rows[0].Time)
	}
	if rows[1].Kernel != core.KCopyDistribution || rows[1].Time != 10*time.Millisecond {
		t.Fatalf("second row %v %v, want copy at its 10ms minimum", rows[1].Kernel, rows[1].Time)
	}
	if rows[0].Percent != 75 || rows[1].Percent != 25 {
		t.Fatalf("shares %g%%, %g%%, want 75%%, 25%% of the minima's sum", rows[0].Percent, rows[1].Percent)
	}
}

func TestReportContainsKernelNames(t *testing.T) {
	p := NewProfile(Config{})
	p.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KComputeCollision, D: time.Second})
	var b strings.Builder
	Render(&b, p.Report(0))
	rep := b.String()
	for _, want := range []string{"compute_fluid_collision", "% Total", "total"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestPhaseProfileImbalanceZeroWhenEqual(t *testing.T) {
	p := NewProfile(Config{Engine: "cube", Threads: 4})
	for tid := 0; tid < 4; tid++ {
		p.Emit(core.Event{Kind: core.PhaseDone, Tid: tid, Phase: core.PhaseCollideStream, D: 10 * time.Millisecond})
	}
	if r := p.PhaseImbalanceRatio(core.PhaseCollideStream); r != 1 {
		t.Fatalf("equal threads imbalance ratio = %g, want 1", r)
	}
}

func TestPhaseProfileImbalanceDetectsSkew(t *testing.T) {
	p := NewProfile(Config{Engine: "cube", Threads: 2})
	p.Emit(core.Event{Kind: core.PhaseDone, Phase: core.PhaseCollideStream, D: 20 * time.Millisecond})
	p.Emit(core.Event{Kind: core.PhaseDone, Tid: 1, Phase: core.PhaseCollideStream, D: 10 * time.Millisecond})
	// max = 20, mean = 15 → 4/3.
	if r := p.ImbalanceRatio(); math.Abs(r-4.0/3) > 1e-12 {
		t.Fatalf("imbalance ratio = %g, want 4/3", r)
	}
}

func TestPhaseProfileIgnoresOutOfRange(t *testing.T) {
	p := NewProfile(Config{Engine: "cube", Threads: 2})
	p.Emit(core.Event{Kind: core.PhaseDone, Tid: 5, Phase: core.PhaseCopy, D: time.Second})           // bad tid
	p.Emit(core.Event{Kind: core.PhaseDone, Phase: core.Phase(0), D: time.Second})                    // bad phase
	p.Emit(core.Event{Kind: core.PhaseDone, Phase: core.Phase(99), D: time.Second})                   // bad phase
	p.Emit(core.Event{Kind: core.PhaseDone, Tid: -1, Phase: core.PhaseCollideStream, D: time.Second}) // bad tid
	if p.ImbalanceRatio() != 0 {
		t.Fatal("out-of-range records were kept")
	}
}

func TestThreadTimeAndPhaseTime(t *testing.T) {
	p := NewProfile(Config{Engine: "cube", Threads: 3})
	p.Emit(core.Event{Kind: core.PhaseDone, Tid: 1, Phase: core.PhaseFibersForce, D: 5 * time.Millisecond})
	p.Emit(core.Event{Kind: core.PhaseDone, Tid: 1, Phase: core.PhaseCopy, D: 7 * time.Millisecond})
	if got := p.ThreadTime(1); got != 12*time.Millisecond {
		t.Fatalf("ThreadTime(1) = %v", got)
	}
	pt := p.Report(0).Phases[core.PhaseCopy-1].BusySeconds
	if len(pt) != 3 || pt[1] != 0.007 || pt[0] != 0 {
		t.Fatalf("copy busy seconds = %v", pt)
	}
}

func TestScheduleImbalance(t *testing.T) {
	if im := ScheduleImbalance([]int{4, 4, 4, 4}); im != 0 {
		t.Fatalf("balanced imbalance = %g", im)
	}
	// counts {4,4,4,3}: mean 3.75, max 4 → (4−3.75)/4 = 0.0625.
	if im := ScheduleImbalance([]int{4, 4, 4, 3}); math.Abs(im-0.0625) > 1e-12 {
		t.Fatalf("imbalance = %g, want 0.0625", im)
	}
	if ScheduleImbalance(nil) != 0 || ScheduleImbalance([]int{0, 0}) != 0 {
		t.Fatal("degenerate schedules must report 0")
	}
}

func TestStaticScheduleCounts(t *testing.T) {
	counts := StaticScheduleCounts(124, 32)
	sum := 0
	for _, c := range counts {
		sum += c
		if c != 3 && c != 4 {
			t.Fatalf("chunk size %d, want 3 or 4", c)
		}
	}
	if sum != 124 {
		t.Fatalf("counts sum to %d", sum)
	}
}

// The deterministic imbalance of the paper's static schedule grows as the
// core count rises — the trend Table II reports.
func TestScheduleImbalanceGrowsWithCores(t *testing.T) {
	prev := -1.0
	for _, p := range []int{2, 4, 8, 16, 32} {
		im := ScheduleImbalance(StaticScheduleCounts(124, p))
		if im < prev {
			t.Fatalf("imbalance decreased at %d cores: %g -> %g", p, prev, im)
		}
		prev = im
	}
	if prev == 0 {
		t.Fatal("32-core schedule of 124 slabs cannot be perfectly balanced")
	}
}

// A Profile plugged into the real sequential solver must rank the
// fluid kernels above the fiber kernels (the Table I headline).
func TestProfileRealSolverRanksFluidKernelsFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real solver")
	}
	sh := fiber.NewSheet(fiber.Params{NumFibers: 8, NodesPerFiber: 8, Width: 7, Height: 7,
		Origin: fiber.Vec3{6, 4, 4}, Ks: 0.05, Kb: 0.001})
	s := core.MustNewSolver(core.Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, Sheet: sh})
	// One profile per step, ranked by each kernel's best step: under
	// load a descheduling can land in any kernel of a short timed run.
	profs := make([]*Profile, 15)
	for i := range profs {
		profs[i] = NewProfile(Config{})
		s.Probe = profs[i]
		s.Step()
	}
	rows := BestRanked(profs...)
	// Which of the full-grid fluid kernels leads depends on the collision
	// code (DESIGN §8); that one of them does is the headline.
	switch rows[0].Kernel {
	case core.KComputeCollision, core.KStreamDistribution, core.KUpdateVelocity, core.KCopyDistribution:
	default:
		t.Fatalf("top kernel = %v, want a full-grid fluid kernel (5, 6, 7 or 9)", rows[0].Kernel)
	}
	// The three fiber-only force kernels must be in the bottom half.
	rank := map[core.Kernel]int{}
	for i, r := range rows {
		rank[r.Kernel] = i
	}
	for _, k := range []core.Kernel{core.KComputeBendingForce, core.KComputeStretchingForce, core.KComputeElasticForce} {
		if rank[k] < 4 {
			t.Fatalf("fiber kernel %v ranked %d, want bottom half", k, rank[k])
		}
	}
}

// A coarse clock reports zero-length slices and waits. They are booked
// like any other: the next event of the same step, on the same ring
// slot, must still find it free.
func TestZeroDurationEvents(t *testing.T) {
	done := make(chan struct{})
	p := NewProfile(Config{Engine: "cube", Threads: 2})
	o := NewProfile(Config{Engine: "omp", Threads: 2})
	go func() {
		defer close(done)
		for step := 1; step <= 2; step++ {
			p.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: 0, Phase: core.PhaseCollideStream})
			p.Emit(core.Event{Kind: core.BarrierArrive, Step: step, Tid: 0, Site: core.SiteAfterStream, Crossing: uint64(step)})
			p.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: 1, Phase: core.PhaseCollideStream, D: time.Millisecond})
			p.Emit(core.Event{Kind: core.BarrierArrive, Step: step, Tid: 1, Site: core.SiteAfterStream, Crossing: uint64(step), Last: true})
			o.Emit(core.Event{Kind: core.RegionDone, Step: step, Kernel: core.KComputeCollision, Busy: []time.Duration{0, 0}})
			o.Emit(core.Event{Kind: core.RegionDone, Step: step, Kernel: core.KComputeCollision, Busy: []time.Duration{0, time.Millisecond}})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a profile's Emit has not returned after 10 s")
	}
	if rec, ok := p.StepRecord(2); !ok || rec.Tid != 1 || rec.Phase != "collide_stream" {
		t.Fatalf("cube step record %+v, %v; want collide_stream on tid 1", rec, ok)
	}
	if rec, ok := o.StepRecord(2); !ok || rec.Tid != 1 {
		t.Fatalf("omp step record %+v, %v; want tid 1", rec, ok)
	}
}
