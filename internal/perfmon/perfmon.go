// Package perfmon is the library's performance-measurement substrate: the
// substitute for the gprof and OmpP profilers the paper uses.
//
//   - Profile is the one accumulator of the engines' timing events
//     (core.Probe): wall time per kernel, rendered as the paper's Table I;
//     per-thread time per segment — an Algorithm-4 loop nest or a kernel's
//     parallel regions — with the load-imbalance ratios of Table II; and
//     per-thread waits per barrier site.
//   - CubeHeatmap samples per-cube work (heatmap.go).
//   - ScheduleImbalance computes the deterministic component of load
//     imbalance implied by a static schedule, independent of timers.
//
// A Profile keeps its kernel and phase times in telemetry.Counter series
// (exact integer nanoseconds) registered in a telemetry.Registry. Built
// on the caller's registry, the text reports here and the /metrics
// exposition render the same counters and cannot disagree; a nil
// registry binds a private one.
package perfmon

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/par"
	"lbmib/internal/telemetry"
)

// Profile accumulates every event kind of core.Probe but block events.
// An engine emits either kernel and region events (sequential,
// loop-parallel) or phase and barrier events (the others), so one
// profile answers for whichever engine it is attached to; all methods
// are safe for concurrent use from every worker thread.
type Profile struct {
	threads int

	// Kernel events: coordinator wall time and executions per kernel,
	// series lbmib_kernel_nanos_total / lbmib_kernel_calls_total.
	kernelNanos [core.NumKernels + 1]*telemetry.Counter
	kernelCalls [core.NumKernels + 1]*telemetry.Counter
	// Phase events: phaseNanos[phase][tid], series
	// lbmib_phase_thread_nanos_total.
	phaseNanos [core.NumPhases + 1][]*telemetry.Counter
	// Region events: busy[kernel*threads+tid], and over all regions the
	// time threads idled at the implicit barrier (Σ max−busy), the
	// critical path (Σ max) and the region count.
	busy                       []atomic.Int64
	waiting, critical, regions atomic.Int64
	// Barrier events: per (site*threads+tid) summed wait and arrivals.
	wait, arrivals []atomic.Int64

	pub publication
}

// NewProfile creates a profile for an engine of the given team width;
// events from threads beyond it are dropped, so threads = 0 profiles
// kernels only (the sequential engine's Table I). Its counter series
// live in reg; a nil reg binds a private registry.
func NewProfile(reg *telemetry.Registry, threads int) *Profile {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p := &Profile{
		threads:  threads,
		busy:     make([]atomic.Int64, (core.NumKernels+1)*threads),
		wait:     make([]atomic.Int64, int(core.NumBarrierSites)*threads),
		arrivals: make([]atomic.Int64, int(core.NumBarrierSites)*threads),
	}
	for k := core.Kernel(1); k <= core.NumKernels; k++ {
		lbl := telemetry.L("kernel", k.String())
		p.kernelNanos[k] = reg.Counter("lbmib_kernel_nanos_total",
			"accumulated wall-clock nanoseconds per LBM-IB kernel", lbl)
		p.kernelCalls[k] = reg.Counter("lbmib_kernel_calls_total",
			"kernel executions recorded", lbl)
	}
	for ph := core.Phase(1); ph <= core.NumPhases; ph++ {
		p.phaseNanos[ph] = make([]*telemetry.Counter, threads)
		for tid := range p.phaseNanos[ph] {
			p.phaseNanos[ph][tid] = reg.Counter("lbmib_phase_thread_nanos_total",
				"accumulated per-thread wall-clock nanoseconds per Algorithm-4 loop nest",
				telemetry.L("phase", ph.String()), telemetry.L("thread", strconv.Itoa(tid)))
		}
	}
	return p
}

// Emit implements core.Probe; events naming a kernel, phase, site or
// thread out of range are dropped.
func (p *Profile) Emit(e core.Event) {
	switch e.Kind {
	case core.KernelDone:
		if e.Kernel >= 1 && e.Kernel <= core.NumKernels {
			p.kernelNanos[e.Kernel].Add(int64(e.D))
			p.kernelCalls[e.Kernel].Inc()
		}
	case core.RegionDone:
		if e.Kernel >= 1 && e.Kernel <= core.NumKernels {
			p.regionDone(e.Kernel, e.Busy)
		}
	case core.PhaseDone:
		if e.Phase >= 1 && e.Phase <= core.NumPhases && e.Tid >= 0 && e.Tid < p.threads {
			p.phaseNanos[e.Phase][e.Tid].Add(int64(e.D))
		}
	case core.BarrierArrive:
		if e.Site >= 0 && e.Site < core.NumBarrierSites && e.Tid >= 0 && e.Tid < p.threads {
			p.wait[int(e.Site)*p.threads+e.Tid].Add(int64(e.D))
			p.arrivals[int(e.Site)*p.threads+e.Tid].Add(1)
		}
	}
}

// regionDone books one parallel region: besides each thread's busy time,
// the wait its implicit barrier implies, max(busy) − busy[tid] — the
// OmpP-style accounting for the loop-parallel engine.
func (p *Profile) regionDone(k core.Kernel, busy []time.Duration) {
	if len(busy) > p.threads {
		busy = busy[:p.threads]
	}
	var max, sum time.Duration
	for tid, d := range busy {
		p.busy[int(k)*p.threads+tid].Add(int64(d))
		sum += d
		if d > max {
			max = d
		}
	}
	p.waiting.Add(int64(max)*int64(len(busy)) - int64(sum))
	p.critical.Add(int64(max))
	p.regions.Add(1)
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
	return time.Duration(p.kernelNanos[k].Value())
}

// Calls returns how many times kernel k was recorded.
func (p *Profile) Calls(k core.Kernel) int {
	if k < 1 || k > core.NumKernels {
		return 0
	}
	return int(p.kernelCalls[k].Value())
}

// Row is one line of the Table-I-style report.
type Row struct {
	Kernel  core.Kernel
	Time    time.Duration
	Percent float64
}

// Ranked returns the kernels ordered by descending total time with their
// share of the summed kernel time — exactly the columns of Table I.
func (p *Profile) Ranked() []Row {
	total := p.Total()
	rows := make([]Row, 0, core.NumKernels)
	for k := core.Kernel(1); k <= core.NumKernels; k++ {
		d := p.KernelTime(k)
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		rows = append(rows, Row{Kernel: k, Time: d, Percent: pct})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Time > rows[j].Time })
	return rows
}

// Report renders the ranked profile as a text table.
func (p *Profile) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-36s %10s %8s\n", "Kernel", "Kernel Name", "Time", "% Total")
	for _, r := range p.Ranked() {
		fmt.Fprintf(&b, "%-6d %-36s %10s %7.2f%%\n", int(r.Kernel), r.Kernel.String(), r.Time.Round(time.Microsecond), r.Percent)
	}
	fmt.Fprintf(&b, "%-6s %-36s %10s\n", "", "total", p.Total().Round(time.Microsecond))
	return b.String()
}

// PhaseTime returns the per-thread times of one loop nest.
func (p *Profile) PhaseTime(ph core.Phase) []time.Duration {
	out := make([]time.Duration, p.threads)
	if ph < 1 || ph > core.NumPhases {
		return out
	}
	for tid := range out {
		out[tid] = time.Duration(p.phaseNanos[ph][tid].Value())
	}
	return out
}

// KernelBusy returns the per-thread busy times of one kernel's regions.
func (p *Profile) KernelBusy(k core.Kernel) []time.Duration {
	out := make([]time.Duration, p.threads)
	if k < 1 || k > core.NumKernels {
		return out
	}
	for tid := range out {
		out[tid] = time.Duration(p.busy[int(k)*p.threads+tid].Load())
	}
	return out
}

// ThreadTime returns thread tid's computing time over all segments:
// loop nests and parallel regions.
func (p *Profile) ThreadTime(tid int) time.Duration {
	if tid < 0 || tid >= p.threads {
		return 0
	}
	var t int64
	for ph := core.Phase(1); ph <= core.NumPhases; ph++ {
		t += p.phaseNanos[ph][tid].Value()
	}
	for k := 1; k <= core.NumKernels; k++ {
		t += p.busy[k*p.threads+tid].Load()
	}
	return time.Duration(t)
}

// ImbalanceRatio returns max/mean of the per-thread computing times —
// the Table II metric for the whole run (0 with no data, 1 when
// perfectly balanced).
func (p *Profile) ImbalanceRatio() float64 {
	totals := make([]time.Duration, p.threads)
	for tid := range totals {
		totals[tid] = p.ThreadTime(tid)
	}
	return maxOverMean(totals)
}

// PhaseImbalanceRatio returns max/mean of the per-thread times of one
// loop nest — the paper's Table II load-imbalance metric for a single
// phase. A phase nobody has reported yet returns 0; a perfectly balanced
// phase returns 1.
func (p *Profile) PhaseImbalanceRatio(ph core.Phase) float64 {
	return maxOverMean(p.PhaseTime(ph))
}

// KernelImbalanceRatio returns max/mean of one kernel's per-thread busy
// time.
func (p *Profile) KernelImbalanceRatio(k core.Kernel) float64 {
	return maxOverMean(p.KernelBusy(k))
}

// maxOverMean is the Table II ratio over a per-thread time vector.
func maxOverMean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var max, sum time.Duration
	for _, d := range ds {
		if d > max {
			max = d
		}
		sum += d
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(ds))
	return float64(max) / mean
}

// Regions returns how many parallel regions were recorded.
func (p *Profile) Regions() int { return int(p.regions.Load()) }

// CriticalPath returns the summed per-region max busy time — the
// parallel wall-clock lower bound of the recorded regions.
func (p *Profile) CriticalPath() time.Duration { return time.Duration(p.critical.Load()) }

// BarrierWaitAt returns thread tid's accumulated wait at one site.
func (p *Profile) BarrierWaitAt(site core.BarrierSite, tid int) time.Duration {
	if site < 0 || site >= core.NumBarrierSites || tid < 0 || tid >= p.threads {
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
// waiting at barriers. With parallel regions recorded it is their
// implicit barriers' share of threads × critical path, which needs no
// outside clock; otherwise it is the explicit barrier sites' waits over
// threads × wall, the wall-clock time of the profiled steps.
func (p *Profile) BarrierWaitShare(wall time.Duration) float64 {
	if crit := p.critical.Load(); crit > 0 {
		return float64(p.waiting.Load()) / (float64(crit) * float64(p.threads))
	}
	if wall <= 0 || p.threads == 0 {
		return 0
	}
	return p.BarrierWaitTotal().Seconds() / (float64(p.threads) * wall.Seconds())
}

// publication caches the gauges Publish writes. A series is resolved the
// first time it has a value, so a segment the engine never reports never
// shows in an exposition, and later publishes skip the registry's
// lookup by name and labels.
type publication struct {
	reg    *telemetry.Registry
	engine string
	total  *telemetry.Gauge
	phase  [core.NumPhases + 1]*telemetry.Gauge
	kernel [core.NumKernels + 1]*telemetry.Gauge
	wait   []*telemetry.Gauge // site*threads+tid
}

// Publish writes the profile into reg as gauges: the Table II ratio as
// lbmib_load_imbalance_ratio{engine,phase} — phase "total" for the whole
// step, plus every loop nest or kernel with samples — and
// lbmib_barrier_wait_seconds{engine,site,thread} for every (site,
// thread) with at least one arrival. A nil reg is a no-op. Publish is
// for the driver goroutine: it must not run concurrently with itself.
func (p *Profile) Publish(reg *telemetry.Registry, engine string) {
	if reg == nil {
		return
	}
	pub := &p.pub
	if pub.reg != reg || pub.engine != engine {
		*pub = publication{reg: reg, engine: engine, wait: make([]*telemetry.Gauge, len(p.wait))}
	}
	eng := telemetry.L("engine", engine)
	ratio := func(slot **telemetry.Gauge, segment string, v float64) {
		if *slot == nil {
			if v == 0 {
				return
			}
			*slot = reg.Gauge("lbmib_load_imbalance_ratio",
				"max/mean per-thread phase time (Table II load-imbalance metric)",
				eng, telemetry.L("phase", segment))
		}
		(*slot).Set(v)
	}
	ratio(&pub.total, "total", p.ImbalanceRatio())
	for ph := core.Phase(1); ph <= core.NumPhases; ph++ {
		ratio(&pub.phase[ph], ph.String(), p.PhaseImbalanceRatio(ph))
	}
	for k := core.Kernel(1); k <= core.NumKernels; k++ {
		ratio(&pub.kernel[k], k.String(), p.KernelImbalanceRatio(k))
	}
	for i := range p.wait {
		if p.arrivals[i].Load() == 0 {
			continue
		}
		if pub.wait[i] == nil {
			site, tid := core.BarrierSite(i/p.threads), i%p.threads
			pub.wait[i] = reg.Gauge("lbmib_barrier_wait_seconds",
				"accumulated per-thread barrier wait by call site",
				eng, telemetry.L("site", site.String()), telemetry.L("thread", strconv.Itoa(tid)))
		}
		pub.wait[i].Set(time.Duration(p.wait[i].Load()).Seconds())
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
