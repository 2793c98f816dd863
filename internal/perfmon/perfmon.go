// Package perfmon is the library's performance-measurement substrate: the
// substitute for the gprof and OmpP profilers the paper uses, and the
// critical-path profiler built on the same events.
//
//   - Profile is the one accumulator of the engines' timing events
//     (core.Probe). It answers the paper's Table I (wall time per kernel),
//     Table II (per-thread busy time per segment, the load-imbalance
//     ratios over it and the share of thread-time spent waiting at
//     barriers) and the critical-path report (report.go): who released
//     each barrier crossing, why the others waited, and what fixing it
//     would buy.
//   - ScheduleImbalance computes the deterministic component of load
//     imbalance implied by a static schedule, independent of timers.
package perfmon

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/par"
	"lbmib/internal/telemetry"
)

// Config configures a Profile.
type Config struct {
	// Engine names the engine for metric labels and selects the segment
	// and site vocabulary: "omp" profiles the parallel regions of the nine
	// kernels (each region's implicit join is its site); "" and
	// "sequential" profile kernel events only; every other engine the
	// Algorithm-4 phases and barrier sites.
	Engine string
	// Threads is the worker count; events from other tids are dropped.
	Threads int
	// Tracer, when non-nil, receives Chrome-trace flow events linking
	// each barrier release's last arriver to the threads it kept waiting.
	Tracer *telemetry.Tracer
}

// Profile accumulates every event kind of core.Probe but block events.
// An engine emits kernel events (sequential, loop-parallel), region
// events (loop-parallel) or phase and barrier events (the others); the
// vocabulary Config.Engine selects decides which of the last three a
// profile keeps. All methods are safe for concurrent use from every
// worker thread.
type Profile struct {
	engine  string
	threads int
	tracer  *telemetry.Tracer
	regions bool // omp vocabulary: kernels are the segments, their regions the sites

	segNames  []string // segment vocabulary; index 0 unused
	siteNames []string
	siteSeg   []int // site → segment whose completion the site orders

	// Kernel events: coordinator wall time and executions per kernel.
	kernelNanos, kernelCalls [core.NumKernels + 1]atomic.Int64

	// Per-(segment, thread) busy time, index seg*threads+tid.
	busy []atomic.Int64
	// Per-(site, thread) waits, arrivals and last arrivals, index
	// site*threads+tid; per site, crossings and the longest single wait.
	wait, arrivals, lastTotal []atomic.Int64
	crossings, maxWait        []atomic.Int64

	// Step ring: each step's per-segment critical, summed and per-thread
	// busy time, folded into the cumulative totals below when a slot
	// recycles. The totals are atomics, so a slot's fold takes no lock
	// under the slot's own.
	slots []stepSlot
	// Crossing ring: who released each recent barrier crossing.
	chain []chainSlot

	foldedSteps           atomic.Int64
	foldedCrit, foldedSum []atomic.Int64 // per segment, nanos
	// critical is the run's critical time: Σ over steps and segments.
	critical atomic.Int64

	synthCrossing atomic.Uint64 // crossing ids of the region sites

	pub publication
}

type stepSlot struct {
	mu     sync.Mutex
	step   int     // -1 = empty
	crit   []int64 // per segment: the step's critical time
	sum    []int64 // per segment: busy time summed over threads
	tid    []int32 // per segment: the slowest thread
	thread []int64 // per (segment, thread): the thread's busy time
}

type chainSlot struct {
	mu       sync.Mutex
	crossing uint64 // +1; 0 = empty
	site     int32
	step     int32
	lastTid  int32 // -1 until the last arriver stamps it
	maxWait  int64
}

// window is the depth of the step ring, and per site of the crossing
// ring: the steps a StepRecord or a chain can still see.
const window = 64

// NewProfile creates a profile for the given engine.
func NewProfile(cfg Config) *Profile {
	threads := max(cfg.Threads, 1)
	p := &Profile{engine: cfg.Engine, threads: threads, tracer: cfg.Tracer}
	switch cfg.Engine {
	case "", "sequential":
		p.segNames = []string{""}
	case "omp":
		p.regions = true
		p.segNames = make([]string, core.NumKernels+1)
		for k := core.Kernel(1); k <= core.NumKernels; k++ {
			p.segNames[k] = k.String()
			p.siteNames = append(p.siteNames, "region_"+k.String())
			p.siteSeg = append(p.siteSeg, int(k))
		}
	default:
		p.segNames = make([]string, core.NumPhases+1)
		for ph := core.Phase(1); ph <= core.NumPhases; ph++ {
			p.segNames[ph] = ph.String()
		}
		for si := core.BarrierSite(0); si < core.NumBarrierSites; si++ {
			p.siteNames = append(p.siteNames, si.String())
			p.siteSeg = append(p.siteSeg, int(precedingPhase(si)))
		}
	}
	nsites, nsegs := len(p.siteNames), len(p.segNames)
	p.busy = make([]atomic.Int64, nsegs*threads)
	p.wait = make([]atomic.Int64, nsites*threads)
	p.arrivals = make([]atomic.Int64, nsites*threads)
	p.lastTotal = make([]atomic.Int64, nsites*threads)
	p.crossings = make([]atomic.Int64, nsites)
	p.maxWait = make([]atomic.Int64, nsites)
	p.slots = make([]stepSlot, window)
	for i := range p.slots {
		p.slots[i] = stepSlot{
			step:   -1,
			crit:   make([]int64, nsegs),
			sum:    make([]int64, nsegs),
			tid:    make([]int32, nsegs),
			thread: make([]int64, nsegs*threads),
		}
	}
	p.chain = make([]chainSlot, window*max(nsites, 1))
	p.foldedCrit = make([]atomic.Int64, nsegs)
	p.foldedSum = make([]atomic.Int64, nsegs)
	return p
}

// precedingPhase maps a barrier site to the phase whose completion the
// site orders — the phase whose slow thread is the site's last arriver.
func precedingPhase(site core.BarrierSite) core.Phase {
	switch site {
	case core.SiteAfterSpread:
		return core.PhaseFibersForce
	case core.SiteAfterStream:
		return core.PhaseCollideStream
	case core.SiteAfterVelocity:
		return core.PhaseUpdateVelocity
	default:
		return core.PhaseCopy
	}
}

// Emit implements core.Probe; events naming a kernel, segment, site or
// thread outside the profile's vocabulary are dropped.
func (p *Profile) Emit(e core.Event) {
	inRange := e.Tid >= 0 && e.Tid < p.threads
	switch {
	case e.Kind == core.KernelDone && e.Kernel >= 1 && e.Kernel <= core.NumKernels:
		p.kernelNanos[e.Kernel].Add(int64(e.D))
		p.kernelCalls[e.Kernel].Add(1)
	case e.Kind == core.RegionDone && p.regions && e.Kernel >= 1 && e.Kernel <= core.NumKernels:
		p.regionDone(e.Step, int(e.Kernel), e.Busy)
	case e.Kind == core.PhaseDone && !p.regions && inRange && e.Phase >= 1 && int(e.Phase) < len(p.segNames):
		p.phaseDone(e.Step, int(e.Phase), e.Tid, e.D)
	case e.Kind == core.BarrierArrive && !p.regions && inRange && e.Site >= 0 && int(e.Site) < len(p.siteNames):
		p.siteArrive(e.Step, int(e.Site), e.Tid, e.Crossing, e.D, e.Last)
	}
}

// claim makes s, locked by the caller, hold step, first retiring the
// older step it held into the cumulative totals.
func (p *Profile) claim(s *stepSlot, step int) {
	if s.step == step {
		return
	}
	if s.step >= 0 {
		p.foldedSteps.Add(1)
		for seg := range s.crit {
			p.foldedCrit[seg].Add(s.crit[seg])
			p.foldedSum[seg].Add(s.sum[seg] / int64(p.threads))
		}
	}
	s.step = step
	clear(s.crit)
	clear(s.sum)
	clear(s.tid)
	clear(s.thread)
}

// phaseDone books one thread's slice of a phase. A phase's critical time
// in a step is its slowest thread's summed slices, so a schedule may
// report a phase in several slices per thread and step.
func (p *Profile) phaseDone(step, seg, tid int, d time.Duration) {
	i := seg*p.threads + tid
	p.busy[i].Add(int64(d))
	s := &p.slots[step%window]
	s.mu.Lock()
	p.claim(s, step)
	s.thread[i] += int64(d)
	s.sum[seg] += int64(d)
	if s.thread[i] > s.crit[seg] {
		p.critical.Add(s.thread[i] - s.crit[seg])
		s.crit[seg], s.tid[seg] = s.thread[i], int32(tid)
	}
	s.mu.Unlock()
}

// regionDone books one parallel region of kernel seg. Its critical time
// is its slowest thread's busy time, added to the kernel's other regions
// in the step (spreading runs two). The region's implicit join is a
// barrier in all but name, so the busy vector also yields a synthesized
// crossing: the busiest thread is the last arriver, and each thread's
// wait is the gap to it.
func (p *Profile) regionDone(step, seg int, busy []time.Duration) {
	if len(busy) > p.threads {
		busy = busy[:p.threads]
	}
	row := seg * p.threads
	var max time.Duration
	arg := 0
	s := &p.slots[step%window]
	s.mu.Lock()
	p.claim(s, step)
	for tid, d := range busy {
		p.busy[row+tid].Add(int64(d))
		s.thread[row+tid] += int64(d)
		s.sum[seg] += int64(d)
		if d > max {
			max, arg = d, tid
		}
	}
	s.crit[seg] += int64(max)
	p.critical.Add(int64(max))
	slowest := 0
	for tid := 1; tid < p.threads; tid++ {
		if s.thread[row+tid] > s.thread[row+slowest] {
			slowest = tid
		}
	}
	s.tid[seg] = int32(slowest)
	s.mu.Unlock()
	crossing := p.synthCrossing.Add(1) - 1
	for tid, d := range busy {
		p.siteArrive(step, seg-1, tid, crossing, max-d, tid == arg)
	}
}

func (p *Profile) siteArrive(step, site, tid int, crossing uint64, wait time.Duration, last bool) {
	i := site*p.threads + tid
	p.wait[i].Add(int64(wait))
	p.arrivals[i].Add(1)
	if last {
		p.lastTotal[i].Add(1)
		p.crossings[site].Add(1)
	}
	for {
		cur := p.maxWait[site].Load()
		if int64(wait) <= cur || p.maxWait[site].CompareAndSwap(cur, int64(wait)) {
			break
		}
	}
	c := &p.chain[crossing%uint64(len(p.chain))]
	c.mu.Lock()
	if c.crossing != crossing+1 {
		c.crossing = crossing + 1
		c.site = int32(site)
		c.step = int32(step)
		c.lastTid = -1
		c.maxWait = 0
	}
	if int64(wait) > c.maxWait {
		c.maxWait = int64(wait)
	}
	if last {
		c.lastTid = int32(tid)
	}
	c.mu.Unlock()
	if p.tracer != nil {
		if last {
			p.tracer.FlowStart(crossing, tid, "last:"+p.siteNames[site])
		} else if wait >= flowCutoff {
			p.tracer.FlowEnd(crossing, tid, "last:"+p.siteNames[site])
		}
	}
}

// segmentTotals returns how many steps have samples and, per segment,
// the cumulative critical and mean-thread nanoseconds: the folded totals
// plus the live ring slots.
func (p *Profile) segmentTotals() (steps int64, crit, sum []int64) {
	steps = p.foldedSteps.Load()
	crit = make([]int64, len(p.foldedCrit))
	sum = make([]int64, len(p.foldedSum))
	for seg := range crit {
		crit[seg], sum[seg] = p.foldedCrit[seg].Load(), p.foldedSum[seg].Load()
	}
	for i := range p.slots {
		s := &p.slots[i]
		s.mu.Lock()
		if s.step >= 0 {
			steps++
			for seg := range s.crit {
				crit[seg] += s.crit[seg]
				sum[seg] += s.sum[seg] / int64(p.threads)
			}
		}
		s.mu.Unlock()
	}
	return steps, crit, sum
}

// Total returns the summed wall time across all kernels.
func (p *Profile) Total() time.Duration {
	var t time.Duration
	for k := core.Kernel(1); k <= core.NumKernels; k++ {
		t += p.KernelTime(k)
	}
	return t
}

// KernelTime returns the accumulated wall time of kernel k.
func (p *Profile) KernelTime(k core.Kernel) time.Duration {
	if k < 1 || k > core.NumKernels {
		return 0
	}
	return time.Duration(p.kernelNanos[k].Load())
}

// Calls returns how many times kernel k was recorded.
func (p *Profile) Calls(k core.Kernel) int {
	if k < 1 || k > core.NumKernels {
		return 0
	}
	return int(p.kernelCalls[k].Load())
}

// Row is one line of the Table-I-style report.
type Row struct {
	Kernel  core.Kernel
	Time    time.Duration
	Percent float64
}

// Ranked returns the kernels ordered by descending total time with their
// share of the summed kernel time — exactly the columns of Table I.
func (p *Profile) Ranked() []Row { return BestRanked(p) }

// BestRanked is Ranked over profiles of equal runs — one per batch of
// steps — by each kernel's minimum time across them. The minimum filters
// scheduler noise on a shared host: a kernel descheduled in one batch
// does not move in the ranking.
func BestRanked(ps ...*Profile) []Row {
	rows := make([]Row, 0, core.NumKernels)
	var total time.Duration
	for k := core.Kernel(1); k <= core.NumKernels; k++ {
		row := Row{Kernel: k}
		for i, p := range ps {
			if d := p.KernelTime(k); i == 0 || d < row.Time {
				row.Time = d
			}
		}
		rows = append(rows, row)
		total += row.Time
	}
	if total > 0 {
		for i := range rows {
			rows[i].Percent = 100 * float64(rows[i].Time) / float64(total)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Time > rows[j].Time })
	return rows
}

// ThreadTime returns thread tid's busy time over every segment.
func (p *Profile) ThreadTime(tid int) time.Duration {
	if tid < 0 || tid >= p.threads {
		return 0
	}
	var t int64
	for seg := range p.segNames {
		t += p.busy[seg*p.threads+tid].Load()
	}
	return time.Duration(t)
}

// ImbalanceRatio returns max/mean of the per-thread busy times — the
// Table II metric for the whole run (0 with no data, 1 when perfectly
// balanced).
func (p *Profile) ImbalanceRatio() float64 {
	var hi, sum time.Duration
	for tid := 0; tid < p.threads; tid++ {
		d := p.ThreadTime(tid)
		hi, sum = max(hi, d), sum+d
	}
	return maxOverMean(hi, sum, p.threads)
}

// PhaseImbalanceRatio returns max/mean of the per-thread times of one
// loop nest — the paper's Table II metric for a single phase (0 for a
// phase nobody has reported, 1 when perfectly balanced).
func (p *Profile) PhaseImbalanceRatio(ph core.Phase) float64 {
	if p.regions {
		return 0
	}
	return p.segmentRatio(int(ph))
}

// KernelImbalanceRatio returns max/mean of one kernel's per-thread busy
// time over its parallel regions.
func (p *Profile) KernelImbalanceRatio(k core.Kernel) float64 {
	if !p.regions {
		return 0
	}
	return p.segmentRatio(int(k))
}

func (p *Profile) segmentRatio(seg int) float64 {
	if seg < 1 || seg >= len(p.segNames) {
		return 0
	}
	var hi, sum time.Duration
	for i := seg * p.threads; i < (seg+1)*p.threads; i++ {
		d := time.Duration(p.busy[i].Load())
		hi, sum = max(hi, d), sum+d
	}
	return maxOverMean(hi, sum, p.threads)
}

// maxOverMean is the Table II ratio of a per-thread time vector given
// its maximum, sum and length.
func maxOverMean(hi, sum time.Duration, n int) float64 {
	if sum == 0 {
		return 0
	}
	return float64(hi) / (float64(sum) / float64(n))
}

// BarrierWaitAt returns thread tid's accumulated wait at one site of the
// profile's vocabulary (for omp, site k−1 is kernel k's regions).
func (p *Profile) BarrierWaitAt(site core.BarrierSite, tid int) time.Duration {
	if site < 0 || int(site) >= len(p.siteNames) || tid < 0 || tid >= p.threads {
		return 0
	}
	return time.Duration(p.wait[int(site)*p.threads+tid].Load())
}

// BarrierWaitTotal returns the wait summed over all threads and sites.
func (p *Profile) BarrierWaitTotal() time.Duration {
	var t int64
	for i := range p.wait {
		t += p.wait[i].Load()
	}
	return time.Duration(t)
}

// BarrierWaitShare returns the fraction of total thread-time spent
// waiting at barriers. For parallel regions it is their implicit
// barriers' share of threads × critical time, which needs no outside
// clock; otherwise it is the barrier sites' waits over threads × wall,
// the wall-clock time of the profiled steps.
func (p *Profile) BarrierWaitShare(wall time.Duration) float64 {
	if p.regions {
		if crit := p.critical.Load(); crit > 0 {
			return float64(p.BarrierWaitTotal()) / (float64(crit) * float64(p.threads))
		}
		return 0
	}
	if wall <= 0 {
		return 0
	}
	return p.BarrierWaitTotal().Seconds() / (float64(p.threads) * wall.Seconds())
}

// publication caches the gauges Publish writes. A series is resolved the
// first time it has a value, so a segment or site the engine never
// reports never shows in an exposition, and later publishes skip the
// registry's lookup by name and labels.
type publication struct {
	reg         *telemetry.Registry
	ratio, crit []*telemetry.Gauge // per segment; ratio[0] is "total"
	wait, last  []*telemetry.Gauge // per site*threads+tid
}

// Publish writes the profile into reg as gauges, labelled with the
// engine:
//
//   - lbmib_load_imbalance_ratio{phase} — the Table II ratio, phase
//     "total" for the whole step plus every segment with samples;
//   - lbmib_critical_path_seconds{phase} — cumulative critical time per
//     segment;
//   - lbmib_barrier_wait_seconds{site,thread} — accumulated wait of every
//     (site, thread) with an arrival;
//   - lbmib_last_arriver_total{site,tid} — how often each thread released
//     each site.
//
// A nil reg is a no-op. Publish is for the driver goroutine: it must not
// run concurrently with itself.
func (p *Profile) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	pub := &p.pub
	if pub.reg != reg {
		nsegs, n := len(p.segNames), len(p.wait)
		*pub = publication{reg: reg,
			ratio: make([]*telemetry.Gauge, nsegs), crit: make([]*telemetry.Gauge, nsegs),
			wait: make([]*telemetry.Gauge, n), last: make([]*telemetry.Gauge, n)}
	}
	eng := telemetry.L("engine", p.engine)
	set := func(slot **telemetry.Gauge, v float64, name, help string, lbl ...telemetry.Label) {
		if *slot == nil {
			if v == 0 {
				return
			}
			*slot = reg.Gauge(name, help, append([]telemetry.Label{eng}, lbl...)...)
		}
		(*slot).Set(v)
	}
	const (
		ratioHelp = "max/mean per-thread phase time (Table II load-imbalance metric)"
		critHelp  = "Cumulative critical-path seconds per kernel phase (per step, the slowest thread's time)."
	)
	set(&pub.ratio[0], p.ImbalanceRatio(), "lbmib_load_imbalance_ratio", ratioHelp, telemetry.L("phase", "total"))
	_, crit, _ := p.segmentTotals()
	for seg := 1; seg < len(p.segNames); seg++ {
		phase := telemetry.L("phase", p.segNames[seg])
		set(&pub.ratio[seg], p.segmentRatio(seg), "lbmib_load_imbalance_ratio", ratioHelp, phase)
		set(&pub.crit[seg], float64(crit[seg])/1e9, "lbmib_critical_path_seconds", critHelp, phase)
	}
	for i := range p.wait {
		if pub.wait[i] == nil && p.arrivals[i].Load() == 0 {
			continue
		}
		site, tid := p.siteNames[i/p.threads], strconv.Itoa(i%p.threads)
		if pub.wait[i] == nil {
			pub.wait[i] = reg.Gauge("lbmib_barrier_wait_seconds", "accumulated per-thread barrier wait by call site",
				eng, telemetry.L("site", site), telemetry.L("thread", tid))
		}
		pub.wait[i].Set(time.Duration(p.wait[i].Load()).Seconds())
		set(&pub.last[i], float64(p.lastTotal[i].Load()), "lbmib_last_arriver_total",
			"How often each thread was the last arriver (releaser) at each barrier site.",
			telemetry.L("site", site), telemetry.L("tid", tid))
	}
}

// ScheduleImbalance computes the deterministic load-imbalance ratio of a
// work distribution: given the number of items each thread owns (all items
// equally expensive), it returns (max − mean)/max — the fraction of the
// parallel region's critical path spent waiting. It is the noise-free
// component of the Table II "load imbalance" column.
func ScheduleImbalance(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	max, sum := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	if max == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(counts))
	return (float64(max) - mean) / float64(max)
}

// StaticScheduleCounts returns how many of n items each of nthreads owns
// under the OpenMP static schedule — the per-thread workload of the
// paper's fluid kernels, whose x-axis extent rarely divides the thread
// count evenly.
func StaticScheduleCounts(n, nthreads int) []int {
	counts := make([]int, nthreads)
	for tid := 0; tid < nthreads; tid++ {
		lo, hi := par.StaticRange(n, nthreads, tid)
		counts[tid] = hi - lo
	}
	return counts
}
