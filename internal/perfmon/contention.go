package perfmon

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/telemetry"
)

// ContentionProfile attributes synchronization waits: per-thread barrier
// waits by call site (cubesolver.ContentionObserver). All accumulation
// is atomic; the profile is safe for concurrent use from every worker
// thread.
type ContentionProfile struct {
	threads int
	// barrierNanos[site*threads+tid]
	barrierNanos []atomic.Int64
	barrierCount []atomic.Int64
}

// NewContentionProfile sizes a profile for the given thread count.
func NewContentionProfile(threads int) *ContentionProfile {
	return &ContentionProfile{
		threads:      threads,
		barrierNanos: make([]atomic.Int64, int(cubesolver.NumBarrierSites)*threads),
		barrierCount: make([]atomic.Int64, int(cubesolver.NumBarrierSites)*threads),
	}
}

// BarrierWait implements cubesolver.ContentionObserver.
func (p *ContentionProfile) BarrierWait(site cubesolver.BarrierSite, tid int, wait time.Duration) {
	if site < 0 || site >= cubesolver.NumBarrierSites || tid < 0 || tid >= p.threads {
		return
	}
	i := int(site)*p.threads + tid
	p.barrierNanos[i].Add(int64(wait))
	p.barrierCount[i].Add(1)
}

// BarrierWaitAt returns thread tid's accumulated wait at one site.
func (p *ContentionProfile) BarrierWaitAt(site cubesolver.BarrierSite, tid int) time.Duration {
	if site < 0 || site >= cubesolver.NumBarrierSites || tid < 0 || tid >= p.threads {
		return 0
	}
	return time.Duration(p.barrierNanos[int(site)*p.threads+tid].Load())
}

// ThreadBarrierWait returns thread tid's accumulated wait over all sites.
func (p *ContentionProfile) ThreadBarrierWait(tid int) time.Duration {
	if tid < 0 || tid >= p.threads {
		return 0
	}
	var t int64
	for site := 0; site < int(cubesolver.NumBarrierSites); site++ {
		t += p.barrierNanos[site*p.threads+tid].Load()
	}
	return time.Duration(t)
}

// BarrierWaitTotal returns the wait summed over all threads and sites.
func (p *ContentionProfile) BarrierWaitTotal() time.Duration {
	var t int64
	for i := range p.barrierNanos {
		t += p.barrierNanos[i].Load()
	}
	return time.Duration(t)
}

// Publish writes the profile into reg as gauges:
// lbmib_barrier_wait_seconds{engine,site,thread} for every (site,thread)
// with at least one recorded wait.
func (p *ContentionProfile) Publish(reg *telemetry.Registry, engine string) {
	if reg == nil {
		return
	}
	eng := telemetry.L("engine", engine)
	for site := cubesolver.BarrierSite(0); site < cubesolver.NumBarrierSites; site++ {
		for tid := 0; tid < p.threads; tid++ {
			i := int(site)*p.threads + tid
			if p.barrierCount[i].Load() == 0 {
				continue
			}
			reg.Gauge("lbmib_barrier_wait_seconds",
				"accumulated per-thread barrier wait by call site",
				eng, telemetry.L("site", site.String()), telemetry.L("thread", strconv.Itoa(tid))).
				Set(time.Duration(p.barrierNanos[i].Load()).Seconds())
		}
	}
}

// RegionProfile is the OmpP-style accounting for the loop-parallel
// engine: it implements omp.RegionObserver (structurally), accumulating
// per-kernel per-thread busy time plus the implied barrier wait of each
// parallel region (max(busy) − busy[tid], the time tid idled at the
// region's implicit barrier).
type RegionProfile struct {
	mu      sync.Mutex
	threads int
	// busy[kernel][tid]; kernel 0 collects reports with out-of-range ids.
	busy     [core.NumKernels + 1][]time.Duration
	waiting  time.Duration // Σ regions Σ threads (max − busy)
	critical time.Duration // Σ regions max(busy): the parallel critical path
	regions  int
}

// NewRegionProfile sizes the profile for a thread count.
func NewRegionProfile(threads int) *RegionProfile {
	p := &RegionProfile{threads: threads}
	for k := range p.busy {
		p.busy[k] = make([]time.Duration, threads)
	}
	return p
}

// RegionDone implements omp.RegionObserver.
func (p *RegionProfile) RegionDone(step int, k core.Kernel, busy []time.Duration) {
	if k < 0 || k > core.NumKernels {
		k = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var max time.Duration
	for tid, d := range busy {
		if tid >= p.threads {
			break
		}
		p.busy[k][tid] += d
		if d > max {
			max = d
		}
	}
	for tid, d := range busy {
		if tid >= p.threads {
			break
		}
		p.waiting += max - d
	}
	p.critical += max
	p.regions++
}

// Regions returns how many parallel regions were recorded.
func (p *RegionProfile) Regions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.regions
}

// ThreadBusy returns thread tid's busy time summed over all regions.
func (p *RegionProfile) ThreadBusy(tid int) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t time.Duration
	for k := range p.busy {
		if tid >= 0 && tid < p.threads {
			t += p.busy[k][tid]
		}
	}
	return t
}

// KernelBusy returns the per-thread busy times of one kernel's regions.
func (p *RegionProfile) KernelBusy(k core.Kernel) []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]time.Duration, p.threads)
	if k >= 0 && k <= core.NumKernels {
		copy(out, p.busy[k])
	}
	return out
}

// ImbalanceRatio returns max/mean of per-thread total busy time — the
// Table II metric for the whole run (1 = perfectly balanced, 0 = no
// data).
func (p *RegionProfile) ImbalanceRatio() float64 {
	totals := make([]time.Duration, p.threads)
	for tid := range totals {
		totals[tid] = p.ThreadBusy(tid)
	}
	return maxOverMean(totals)
}

// KernelImbalanceRatio returns max/mean of one kernel's per-thread busy
// time.
func (p *RegionProfile) KernelImbalanceRatio(k core.Kernel) float64 {
	return maxOverMean(p.KernelBusy(k))
}

// BarrierWaitShare returns the fraction of total thread-time (threads ×
// critical path) spent idling at the regions' implicit barriers.
func (p *RegionProfile) BarrierWaitShare() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := float64(p.critical) * float64(p.threads)
	if total == 0 {
		return 0
	}
	return float64(p.waiting) / total
}

// CriticalPath returns the summed per-region max busy time — the
// parallel wall-clock lower bound of the recorded regions.
func (p *RegionProfile) CriticalPath() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.critical
}

// CubeHeatmap accumulates per-cube per-phase work samples from the cube
// solver (cubesolver.CubeWorkObserver): which cubes are expensive, which
// thread pays for them. All accumulation is atomic.
type CubeHeatmap struct {
	cx, cy, cz, k int
	threads       int
	// nanos[cube*(NumPhases+1)+phase], counts likewise; lastTid stores
	// tid+1 of the most recent worker to touch the cube (0 = untouched).
	nanos   []atomic.Int64
	counts  []atomic.Int64
	lastTid []atomic.Int64
	// threadNanos[tid*(NumPhases+1)+phase] backs the trace counter tracks.
	threadNanos []atomic.Int64
}

// NewCubeHeatmap sizes a heatmap for a CX×CY×CZ cube mesh of k-sized
// cubes processed by the given thread count.
func NewCubeHeatmap(cx, cy, cz, k, threads int) *CubeHeatmap {
	n := cx * cy * cz
	return &CubeHeatmap{
		cx: cx, cy: cy, cz: cz, k: k, threads: threads,
		nanos:       make([]atomic.Int64, n*(cubesolver.NumPhases+1)),
		counts:      make([]atomic.Int64, n*(cubesolver.NumPhases+1)),
		lastTid:     make([]atomic.Int64, n),
		threadNanos: make([]atomic.Int64, threads*(cubesolver.NumPhases+1)),
	}
}

// NumCubes returns the heatmap's cube count.
func (h *CubeHeatmap) NumCubes() int { return h.cx * h.cy * h.cz }

// CubeWork implements cubesolver.CubeWorkObserver.
func (h *CubeHeatmap) CubeWork(tid, c int, p cubesolver.Phase, d time.Duration) {
	if c < 0 || c >= h.NumCubes() || p < 1 || p > cubesolver.NumPhases {
		return
	}
	h.nanos[c*(cubesolver.NumPhases+1)+int(p)].Add(int64(d))
	h.counts[c*(cubesolver.NumPhases+1)+int(p)].Add(1)
	if tid >= 0 && tid < h.threads {
		h.lastTid[c].Store(int64(tid) + 1)
		h.threadNanos[tid*(cubesolver.NumPhases+1)+int(p)].Add(int64(d))
	}
}

// CubeTime returns cube c's accumulated time in phase p.
func (h *CubeHeatmap) CubeTime(c int, p cubesolver.Phase) time.Duration {
	if c < 0 || c >= h.NumCubes() || p < 1 || p > cubesolver.NumPhases {
		return 0
	}
	return time.Duration(h.nanos[c*(cubesolver.NumPhases+1)+int(p)].Load())
}

// CubeTotal returns cube c's accumulated time over all phases.
func (h *CubeHeatmap) CubeTotal(c int) time.Duration {
	if c < 0 || c >= h.NumCubes() {
		return 0
	}
	var t int64
	for p := 1; p <= cubesolver.NumPhases; p++ {
		t += h.nanos[c*(cubesolver.NumPhases+1)+p].Load()
	}
	return time.Duration(t)
}

// Owner returns the last thread observed working cube c (−1 if none).
func (h *CubeHeatmap) Owner(c int) int {
	if c < 0 || c >= h.NumCubes() {
		return -1
	}
	return int(h.lastTid[c].Load()) - 1
}

// heatmapJSON is the schema-versioned export.
type heatmapJSON struct {
	Schema  string        `json:"schema"`
	CX      int           `json:"cx"`
	CY      int           `json:"cy"`
	CZ      int           `json:"cz"`
	K       int           `json:"cubeSize"`
	Threads int           `json:"threads"`
	Phases  []string      `json:"phases"`
	Cubes   []heatmapCube `json:"cubes"`
}

type heatmapCube struct {
	Cube       int     `json:"cube"`
	CX         int     `json:"cx"`
	CY         int     `json:"cy"`
	CZ         int     `json:"cz"`
	Owner      int     `json:"owner"`
	PhaseNanos []int64 `json:"phaseNanos"` // indexed like Phases
	TotalNanos int64   `json:"totalNanos"`
}

// HeatmapSchema identifies the JSON export format.
const HeatmapSchema = "lbmib-heatmap/v1"

// WriteJSON exports the heatmap as one schema-versioned JSON document.
func (h *CubeHeatmap) WriteJSON(w io.Writer) error {
	doc := heatmapJSON{
		Schema: HeatmapSchema,
		CX:     h.cx, CY: h.cy, CZ: h.cz, K: h.k, Threads: h.threads,
	}
	for p := cubesolver.Phase(1); p <= cubesolver.NumPhases; p++ {
		doc.Phases = append(doc.Phases, p.String())
	}
	for c := 0; c < h.NumCubes(); c++ {
		cz := c % h.cz
		cy := (c / h.cz) % h.cy
		cx := c / (h.cy * h.cz)
		row := heatmapCube{Cube: c, CX: cx, CY: cy, CZ: cz, Owner: h.Owner(c)}
		var total int64
		for p := 1; p <= cubesolver.NumPhases; p++ {
			v := h.nanos[c*(cubesolver.NumPhases+1)+p].Load()
			row.PhaseNanos = append(row.PhaseNanos, v)
			total += v
		}
		row.TotalNanos = total
		doc.Cubes = append(doc.Cubes, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTSV exports one row per cube (cube index, coordinates, owner,
// per-phase nanoseconds, total) — loadable by a spreadsheet or gnuplot
// for a quick heatmap rendering.
func (h *CubeHeatmap) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprint(w, "cube\tcx\tcy\tcz\towner"); err != nil {
		return err
	}
	for p := cubesolver.Phase(1); p <= cubesolver.NumPhases; p++ {
		if _, err := fmt.Fprintf(w, "\t%s_ns", p.String()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "\ttotal_ns"); err != nil {
		return err
	}
	for c := 0; c < h.NumCubes(); c++ {
		cz := c % h.cz
		cy := (c / h.cz) % h.cy
		cx := c / (h.cy * h.cz)
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d", c, cx, cy, cz, h.Owner(c)); err != nil {
			return err
		}
		var total int64
		for p := 1; p <= cubesolver.NumPhases; p++ {
			v := h.nanos[c*(cubesolver.NumPhases+1)+p].Load()
			total += v
			if _, err := fmt.Fprintf(w, "\t%d", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "\t%d\n", total); err != nil {
			return err
		}
	}
	return nil
}

// EmitCounters writes one Chrome-trace counter sample per worker thread
// into tr: a stacked per-phase breakdown of the nanoseconds the thread
// spent on cube work, rendered by the trace viewer as counter tracks
// alongside the phase slices.
func (h *CubeHeatmap) EmitCounters(tr *telemetry.Tracer) {
	if tr == nil {
		return
	}
	for tid := 0; tid < h.threads; tid++ {
		vals := make(map[string]any, cubesolver.NumPhases)
		for p := cubesolver.Phase(1); p <= cubesolver.NumPhases; p++ {
			vals[p.String()] = h.threadNanos[tid*(cubesolver.NumPhases+1)+int(p)].Load()
		}
		tr.Counter(tid, "cube_work_nanos", vals)
	}
}
