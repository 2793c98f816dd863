// Package perfmon is the library's performance-measurement substrate: the
// substitute for the gprof and OmpP profilers the paper uses.
//
//   - KernelProfile accumulates wall-clock time per LBM-IB kernel and
//     renders the paper's Table I (percentage of total execution time per
//     kernel, ranked).
//   - PhaseProfile accumulates per-thread time per Algorithm-4 loop nest
//     and computes the load-imbalance ratio of Table II.
//   - ContentionProfile attributes barrier waits to threads and call
//     sites; RegionProfile does the OmpP-style per-region
//     accounting for the loop-parallel engine; CubeHeatmap samples
//     per-cube work (contention.go).
//   - ScheduleImbalance computes the deterministic component of load
//     imbalance implied by a static schedule, independent of timers.
//
// The profiles store their numbers in telemetry.Counter series (exact
// integer nanoseconds) registered in a telemetry.Registry. A profile
// built with the New*In constructors shares the caller's registry, so
// the text reports here and the /metrics exposition render the same
// counters and cannot disagree; zero-value/legacy constructors bind a
// private registry lazily.
package perfmon

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/par"
	"lbmib/internal/telemetry"
)

// KernelProfile implements core.Observer, accumulating total time per
// kernel. It is safe for concurrent use (the OpenMP-style solver reports
// from its coordinating goroutine only, but the API does not promise
// that). The zero value is usable and accumulates into a private
// registry; NewKernelProfileIn shares an existing one.
type KernelProfile struct {
	once  sync.Once
	reg   *telemetry.Registry
	nanos [core.NumKernels + 1]*telemetry.Counter
	calls [core.NumKernels + 1]*telemetry.Counter
}

// NewKernelProfileIn creates a profile whose counters live in reg as
// lbmib_kernel_nanos_total{kernel} and lbmib_kernel_calls_total{kernel},
// so any exposition of reg carries exactly the numbers this profile
// reports. A nil reg binds a private registry.
func NewKernelProfileIn(reg *telemetry.Registry) *KernelProfile {
	p := &KernelProfile{reg: reg}
	p.init()
	return p
}

// init binds the counter series; it runs at most once, lazily, so the
// zero value keeps working.
func (p *KernelProfile) init() {
	p.once.Do(func() {
		if p.reg == nil {
			p.reg = telemetry.NewRegistry()
		}
		for k := core.Kernel(1); k <= core.NumKernels; k++ {
			lbl := telemetry.L("kernel", k.String())
			p.nanos[k] = p.reg.Counter("lbmib_kernel_nanos_total",
				"accumulated wall-clock nanoseconds per LBM-IB kernel", lbl)
			p.calls[k] = p.reg.Counter("lbmib_kernel_calls_total",
				"kernel executions recorded", lbl)
		}
	})
}

// Registry returns the registry holding this profile's counter series.
func (p *KernelProfile) Registry() *telemetry.Registry {
	p.init()
	return p.reg
}

// KernelDone records one kernel execution.
func (p *KernelProfile) KernelDone(step int, k core.Kernel, d time.Duration) {
	if k < 1 || k > core.NumKernels {
		return
	}
	p.init()
	p.nanos[k].Add(int64(d))
	p.calls[k].Inc()
}

// Total returns the summed time across all kernels.
func (p *KernelProfile) Total() time.Duration {
	p.init()
	var t int64
	for k := core.Kernel(1); k <= core.NumKernels; k++ {
		t += p.nanos[k].Value()
	}
	return time.Duration(t)
}

// KernelTime returns the accumulated time of kernel k.
func (p *KernelProfile) KernelTime(k core.Kernel) time.Duration {
	if k < 1 || k > core.NumKernels {
		return 0
	}
	p.init()
	return time.Duration(p.nanos[k].Value())
}

// Calls returns how many times kernel k was recorded.
func (p *KernelProfile) Calls(k core.Kernel) int {
	if k < 1 || k > core.NumKernels {
		return 0
	}
	p.init()
	return int(p.calls[k].Value())
}

// Row is one line of the Table-I-style report.
type Row struct {
	Kernel  core.Kernel
	Time    time.Duration
	Percent float64
}

// Ranked returns the kernels ordered by descending total time with their
// share of the summed kernel time — exactly the columns of Table I.
func (p *KernelProfile) Ranked() []Row {
	p.init()
	total := p.Total()
	rows := make([]Row, 0, core.NumKernels)
	for k := core.Kernel(1); k <= core.NumKernels; k++ {
		d := time.Duration(p.nanos[k].Value())
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
func (p *KernelProfile) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-36s %10s %8s\n", "Kernel", "Kernel Name", "Time", "% Total")
	for _, r := range p.Ranked() {
		fmt.Fprintf(&b, "%-6d %-36s %10s %7.2f%%\n", int(r.Kernel), r.Kernel.String(), r.Time.Round(time.Microsecond), r.Percent)
	}
	fmt.Fprintf(&b, "%-6s %-36s %10s\n", "", "total", p.Total().Round(time.Microsecond))
	return b.String()
}

// PhaseProfile implements cubesolver.PhaseObserver: it accumulates, per
// thread and per loop nest, the time spent computing, and derives the
// load-imbalance ratio the paper measures with OmpP.
type PhaseProfile struct {
	threads int
	reg     *telemetry.Registry
	// nanos[phase][tid], counter series lbmib_phase_thread_nanos_total.
	nanos [cubesolver.NumPhases + 1][]*telemetry.Counter
}

// NewPhaseProfile creates a profile for the given thread count, backed
// by a private registry.
func NewPhaseProfile(threads int) *PhaseProfile {
	return NewPhaseProfileIn(nil, threads)
}

// NewPhaseProfileIn creates a profile whose counters live in reg as
// lbmib_phase_thread_nanos_total{phase,thread}; a nil reg binds a
// private registry.
func NewPhaseProfileIn(reg *telemetry.Registry, threads int) *PhaseProfile {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p := &PhaseProfile{threads: threads, reg: reg}
	for ph := cubesolver.Phase(1); ph <= cubesolver.NumPhases; ph++ {
		p.nanos[ph] = make([]*telemetry.Counter, threads)
		for tid := 0; tid < threads; tid++ {
			p.nanos[ph][tid] = reg.Counter("lbmib_phase_thread_nanos_total",
				"accumulated per-thread wall-clock nanoseconds per Algorithm-4 loop nest",
				telemetry.L("phase", ph.String()), telemetry.L("thread", strconv.Itoa(tid)))
		}
	}
	return p
}

// Registry returns the registry holding this profile's counter series.
func (p *PhaseProfile) Registry() *telemetry.Registry { return p.reg }

// Threads returns the profile's thread count.
func (p *PhaseProfile) Threads() int { return p.threads }

// PhaseDone records one worker's time in one loop nest.
func (p *PhaseProfile) PhaseDone(step, tid int, ph cubesolver.Phase, d time.Duration) {
	if ph < 1 || ph > cubesolver.NumPhases || tid < 0 || tid >= p.threads {
		return
	}
	p.nanos[ph][tid].Add(int64(d))
}

// Imbalance returns the load-imbalance ratio relative to the whole
// program, as OmpP defines it: the time threads spend waiting at the end
// of parallel work (Σ_phases Σ_t (max_t − T_t)) divided by the total
// parallel time (threads × Σ_phases max_t).
func (p *PhaseProfile) Imbalance() float64 {
	var waiting, total float64
	for ph := cubesolver.Phase(1); ph <= cubesolver.NumPhases; ph++ {
		var max int64
		for _, c := range p.nanos[ph] {
			if v := c.Value(); v > max {
				max = v
			}
		}
		for _, c := range p.nanos[ph] {
			waiting += float64(max - c.Value())
			total += float64(max)
		}
	}
	if total == 0 {
		return 0
	}
	return waiting / total
}

// PhaseImbalanceRatio returns max/mean of the per-thread times of one
// loop nest — the paper's Table II load-imbalance metric for a single
// phase. A phase nobody has reported yet returns 0; a perfectly balanced
// phase returns 1.
func (p *PhaseProfile) PhaseImbalanceRatio(ph cubesolver.Phase) float64 {
	if ph < 1 || ph > cubesolver.NumPhases {
		return 0
	}
	return maxOverMean(p.PhaseTime(ph))
}

// ImbalanceRatio returns max/mean of the per-thread total times across
// all phases (0 with no data, 1 when perfectly balanced).
func (p *PhaseProfile) ImbalanceRatio() float64 {
	totals := make([]time.Duration, p.threads)
	for tid := range totals {
		totals[tid] = p.ThreadTime(tid)
	}
	return maxOverMean(totals)
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

// ThreadTime returns the total computing time of thread tid across phases.
func (p *PhaseProfile) ThreadTime(tid int) time.Duration {
	if tid < 0 || tid >= p.threads {
		return 0
	}
	var t int64
	for ph := cubesolver.Phase(1); ph <= cubesolver.NumPhases; ph++ {
		t += p.nanos[ph][tid].Value()
	}
	return time.Duration(t)
}

// PhaseTime returns the per-thread times of one loop nest.
func (p *PhaseProfile) PhaseTime(ph cubesolver.Phase) []time.Duration {
	out := make([]time.Duration, p.threads)
	if ph < 1 || ph > cubesolver.NumPhases {
		return out
	}
	for tid := range out {
		out[tid] = time.Duration(p.nanos[ph][tid].Value())
	}
	return out
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
