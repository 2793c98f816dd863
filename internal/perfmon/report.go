package perfmon

import (
	"fmt"
	"io"
	"sort"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/perfsim"
	"lbmib/internal/telemetry"
)

// The critical-path report: per barrier site, who released each crossing
// (the last arriver) and why the others waited; per segment, the
// critical time of the run; the most recent steps' last-arriver chains;
// and perfsim's what-if ranking of fixes.
//
// Per step, a segment's critical time is its slowest thread's summed
// busy time (phases), or the sum over its parallel regions of each
// region's slowest thread (kernels). Over the run it is the sum over
// steps, which keeps the rotation of the slowest thread that cumulative
// per-thread totals average away.
//
// Wait causes, per barrier site over the whole run:
//
//   - persistent_straggler — the same thread is the last arriver in at
//     least half the crossings: pin it, fix it, or feed it less work;
//   - data_imbalance — the last arriver rotates, and the per-step busy
//     imbalance of the correlated phase (Σ critical / Σ mean) exceeds
//     the threshold: redistribute work;
//   - barrier_topology — arrivals are near-uniform (mean wait per waiter
//     per crossing under TopologyWait): the wait *is* the barrier, and
//     only restructuring the synchronization helps.

// Schema identifies the JSON report format.
const Schema = "lbmib-critpath/v1"

// Wait-cause classes.
const (
	CauseNone      = "none"
	CauseStraggler = "persistent_straggler"
	CauseImbalance = "data_imbalance"
	CauseTopology  = "barrier_topology"
)

// Classifier thresholds.
const (
	// StragglerShare is the fraction of crossings one thread must
	// release to be called a persistent straggler.
	StragglerShare = 0.5
	// ImbalanceRatio is the per-step Σcritical/Σmean busy ratio of the
	// correlated phase above which rotation is blamed on data imbalance.
	ImbalanceRatio = 1.05
	// TopologyWait is the mean wait per waiter per crossing below which
	// a site's waits are classified as barrier-topology overhead.
	TopologyWait = 10 * time.Microsecond
)

// flowCutoff bounds trace flow-event volume: only waits at least this
// long get an arrow from the last arriver.
const flowCutoff = 100 * time.Microsecond

// SiteReport is one barrier site's attribution and classification.
type SiteReport struct {
	Site string `json:"site"`
	// Crossings counts instrumented releases of this site.
	Crossings int64 `json:"crossings"`
	// LastArrivals[t] counts how often thread t released the site.
	LastArrivals []int64 `json:"lastArrivals"`
	// DominantTid released the most crossings (share of the total in
	// DominantShare).
	DominantTid   int     `json:"dominantTid"`
	DominantShare float64 `json:"dominantShare"`
	// WaitSeconds sums every thread's waits at this site.
	WaitSeconds float64 `json:"waitSeconds"`
	// MaxWaitSeconds is the largest single wait observed.
	MaxWaitSeconds float64 `json:"maxWaitSeconds"`
	// Phase is the segment whose completion this site orders, and
	// PhaseImbalance its per-step Σcritical/Σmean busy ratio.
	Phase          string  `json:"phase"`
	PhaseImbalance float64 `json:"phaseImbalance"`
	// Cause is the classified dominant wait cause (Cause* constants).
	Cause string `json:"cause"`
}

// PhaseReport is one segment's (kernel phase's) critical-path share.
type PhaseReport struct {
	Phase string `json:"phase"`
	// CriticalSeconds is Σ over steps of the segment's critical time —
	// its contribution to the run's critical path.
	CriticalSeconds float64 `json:"criticalSeconds"`
	// MeanSeconds is Σ over steps of the mean thread's busy time; the
	// ratio Critical/Mean is the per-step imbalance (1 = balanced).
	MeanSeconds    float64 `json:"meanSeconds"`
	ImbalanceRatio float64 `json:"imbalanceRatio"`
	// BusySeconds[t] is thread t's total busy time in this phase.
	BusySeconds []float64 `json:"busySeconds"`
}

// ChainLink is one barrier release in a step's last-arriver chain.
type ChainLink struct {
	Site string `json:"site"`
	// Tid is the last arriver — the thread that released the crossing.
	Tid int `json:"tid"`
	// MaxWaitMicros is the longest any other thread waited for it.
	MaxWaitMicros float64 `json:"maxWaitMicros"`
	// SliceMicros is the last arriver's busy time in the site's segment
	// that step, while the step is in the ring (0 otherwise).
	SliceMicros float64 `json:"sliceMicros,omitempty"`
}

// StepChain is one step's reconstructed critical path: the ordered
// barrier releases and who caused each.
type StepChain struct {
	Step  int         `json:"step"`
	Links []ChainLink `json:"links"`
}

// KernelReport is one Table I row.
type KernelReport struct {
	Kernel  string  `json:"kernel"`
	Seconds float64 `json:"seconds"`
	Percent float64 `json:"percent"`
}

// Report is the profile's full output.
type Report struct {
	Schema  string `json:"schema"`
	Engine  string `json:"engine"`
	Threads int    `json:"threads"`
	// Steps counts the profiled time steps.
	Steps  int64                    `json:"steps"`
	Sites  []SiteReport             `json:"sites"`
	Phases []PhaseReport            `json:"phases"`
	Chains []StepChain              `json:"chains,omitempty"`
	WhatIf []perfsim.WhatIfScenario `json:"whatIf,omitempty"`
	// Kernels is Table I, ranked, for engines that time their kernels.
	Kernels []KernelReport `json:"kernels,omitempty"`
	// ImbalanceRatio and BarrierWaitShare are the Table II rollup (see
	// Profile.ImbalanceRatio and Profile.BarrierWaitShare).
	ImbalanceRatio   float64 `json:"imbalanceRatio,omitempty"`
	BarrierWaitShare float64 `json:"barrierWaitShare,omitempty"`
}

// Report assembles the current state; wall is the wall-clock time of the
// profiled steps, for BarrierWaitShare. Safe to call concurrently with
// recording; it reads a consistent-enough snapshot for profiling.
func (p *Profile) Report(wall time.Duration) Report {
	steps, crit, sum := p.segmentTotals()
	if steps == 0 { // kernel events only
		steps = int64(p.Calls(core.KComputeCollision))
	}
	r := Report{Schema: Schema, Engine: p.engine, Threads: p.threads, Steps: steps,
		ImbalanceRatio: p.ImbalanceRatio(), BarrierWaitShare: p.BarrierWaitShare(wall)}
	if p.Total() > 0 {
		for _, row := range p.Ranked() {
			r.Kernels = append(r.Kernels, KernelReport{row.Kernel.String(), row.Time.Seconds(), row.Percent})
		}
	}
	imbal := make([]float64, len(p.segNames))
	for seg := 1; seg < len(p.segNames); seg++ {
		pr := PhaseReport{
			Phase:           p.segNames[seg],
			CriticalSeconds: float64(crit[seg]) / 1e9,
			MeanSeconds:     float64(sum[seg]) / 1e9,
			BusySeconds:     make([]float64, p.threads),
		}
		if sum[seg] > 0 {
			pr.ImbalanceRatio = float64(crit[seg]) / float64(sum[seg])
		}
		imbal[seg] = pr.ImbalanceRatio
		for tid := range pr.BusySeconds {
			pr.BusySeconds[tid] = float64(p.busy[seg*p.threads+tid].Load()) / 1e9
		}
		r.Phases = append(r.Phases, pr)
	}
	for si, name := range p.siteNames {
		sr := SiteReport{
			Site:           name,
			Crossings:      p.crossings[si].Load(),
			LastArrivals:   make([]int64, p.threads),
			MaxWaitSeconds: float64(p.maxWait[si].Load()) / 1e9,
			Phase:          p.segNames[p.siteSeg[si]],
			PhaseImbalance: imbal[p.siteSeg[si]],
		}
		var wait, best int64
		for tid := 0; tid < p.threads; tid++ {
			la := p.lastTotal[si*p.threads+tid].Load()
			sr.LastArrivals[tid] = la
			wait += p.wait[si*p.threads+tid].Load()
			if la > best {
				best = la
				sr.DominantTid = tid
			}
		}
		sr.WaitSeconds = float64(wait) / 1e9
		if sr.Crossings > 0 {
			sr.DominantShare = float64(best) / float64(sr.Crossings)
		}
		sr.Cause = p.classify(sr)
		if sr.Crossings > 0 || sr.WaitSeconds > 0 {
			r.Sites = append(r.Sites, sr)
		}
	}
	r.Chains = p.chains()
	return r
}

// classify applies the wait-cause thresholds.
func (p *Profile) classify(sr SiteReport) string {
	if sr.Crossings == 0 || p.threads < 2 {
		return CauseNone
	}
	meanWait := sr.WaitSeconds / float64(sr.Crossings) / float64(p.threads-1)
	if meanWait < TopologyWait.Seconds() {
		return CauseTopology
	}
	if sr.DominantShare >= StragglerShare {
		return CauseStraggler
	}
	if sr.PhaseImbalance >= ImbalanceRatio {
		return CauseImbalance
	}
	return CauseTopology
}

// chains reconstructs the most recent steps' last-arriver chains from
// the crossing ring, oldest step first, sites in release order.
func (p *Profile) chains() []StepChain {
	type link struct {
		crossing uint64
		site     int32
		tid      int32
		maxWait  int64
	}
	byStep := map[int32][]link{}
	for i := range p.chain {
		c := &p.chain[i]
		c.mu.Lock()
		if c.crossing != 0 && c.lastTid >= 0 {
			byStep[c.step] = append(byStep[c.step], link{c.crossing - 1, c.site, c.lastTid, c.maxWait})
		}
		c.mu.Unlock()
	}
	steps := make([]int32, 0, len(byStep))
	for st := range byStep {
		steps = append(steps, st)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	const maxChains = 8
	if len(steps) > maxChains {
		steps = steps[len(steps)-maxChains:]
	}
	out := make([]StepChain, 0, len(steps))
	for _, st := range steps {
		links := byStep[st]
		sort.Slice(links, func(i, j int) bool { return links[i].crossing < links[j].crossing })
		sc := StepChain{Step: int(st)}
		for _, l := range links {
			sc.Links = append(sc.Links, ChainLink{
				Site:          p.siteNames[l.site],
				Tid:           int(l.tid),
				MaxWaitMicros: float64(l.maxWait) / 1e3,
				SliceMicros:   float64(p.slice(int(st), p.siteSeg[l.site], int(l.tid))) / 1e3,
			})
		}
		out = append(out, sc)
	}
	return out
}

// slice returns thread tid's busy nanoseconds in segment seg at step,
// or 0 once the step has left the ring.
func (p *Profile) slice(step, seg, tid int) int64 {
	s := &p.slots[step%window]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.step != step {
		return 0
	}
	return s.thread[seg*p.threads+tid]
}

// StepRecord summarizes one step for the steplog: the segment that
// dominated the step's critical path, its slowest thread, and the step's
// total critical seconds. ok is false when the step has left the ring
// (or never recorded a segment).
func (p *Profile) StepRecord(step int) (telemetry.CritPathStep, bool) {
	s := &p.slots[step%window]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.step != step {
		return telemetry.CritPathStep{}, false
	}
	best := 0
	var total int64
	for seg := 1; seg < len(s.crit); seg++ {
		total += s.crit[seg]
		if s.crit[seg] > s.crit[best] {
			best = seg
		}
	}
	if best == 0 {
		return telemetry.CritPathStep{}, false
	}
	return telemetry.CritPathStep{
		Phase:   p.segNames[best],
		Tid:     int(s.tid[best]),
		Seconds: float64(total) / 1e9,
	}, true
}

// AddWhatIf fills r.WhatIf with perfsim's measurement-driven speedup
// scenarios, using the report's mean per-step phase profile. nodes is
// the lattice size (NX·NY·NZ) for MLUPS conversion.
func AddWhatIf(r *Report, nodes float64) {
	phases, syncSec := measuredProfile(r)
	r.WhatIf = perfsim.WhatIf(nodes, r.Threads, phases, syncSec)
}

// measuredProfile extracts the perfsim inputs from a report: per-phase
// per-thread busy seconds per step, and the per-crossing barrier sync
// cost estimated from the topology-classified sites.
func measuredProfile(r *Report) ([]perfsim.MeasuredPhase, float64) {
	if r.Steps == 0 {
		return nil, 0
	}
	phases := make([]perfsim.MeasuredPhase, 0, len(r.Phases))
	for _, pr := range r.Phases {
		if pr.CriticalSeconds == 0 {
			continue
		}
		// Per-thread per-step busy, rescaled so the phase's max matches
		// the measured per-step critical time (cumulative busy averages
		// away the rotation the step ring preserved).
		busy := make([]float64, len(pr.BusySeconds))
		perStepMax := pr.CriticalSeconds / float64(r.Steps)
		var maxBusy float64
		for _, b := range pr.BusySeconds {
			maxBusy = max(maxBusy, b)
		}
		for t, b := range pr.BusySeconds {
			if maxBusy > 0 {
				busy[t] = b / maxBusy * perStepMax
			}
		}
		phases = append(phases, perfsim.MeasuredPhase{Name: pr.Phase, Busy: busy})
	}
	// Per-barrier sync cost: measured mean wait of topology-classified
	// sites, else a small default.
	var syncSec float64
	var nTopo int64
	for _, sr := range r.Sites {
		if sr.Cause == CauseTopology && sr.Crossings > 0 && r.Threads > 1 {
			syncSec += sr.WaitSeconds / float64(sr.Crossings) / float64(r.Threads-1)
			nTopo++
		}
	}
	if nTopo > 0 {
		syncSec /= float64(nTopo)
	} else {
		syncSec = 2e-6
	}
	return phases, syncSec
}

// Validate checks a decoded report's structural invariants.
func Validate(r Report) error {
	if r.Schema != Schema {
		return fmt.Errorf("critpath: schema %q, want %q", r.Schema, Schema)
	}
	if r.Threads < 1 {
		return fmt.Errorf("critpath: threads %d", r.Threads)
	}
	for _, sr := range r.Sites {
		if len(sr.LastArrivals) != r.Threads {
			return fmt.Errorf("critpath: site %s has %d lastArrivals, want %d", sr.Site, len(sr.LastArrivals), r.Threads)
		}
		switch sr.Cause {
		case CauseNone, CauseStraggler, CauseImbalance, CauseTopology:
		default:
			return fmt.Errorf("critpath: site %s has unknown cause %q", sr.Site, sr.Cause)
		}
	}
	return nil
}

// Render formats the report for a terminal: Table I for engines that
// time their kernels, the Table II rollup, per-site attribution with
// cause, per-phase critical path, recent last-arriver chains, and the
// ranked what-if table.
func Render(w io.Writer, r Report) {
	fmt.Fprintf(w, "critical-path profile — engine=%s threads=%d steps=%d\n", r.Engine, r.Threads, r.Steps)

	if len(r.Kernels) > 0 {
		var total float64
		fmt.Fprintf(w, "\n%-36s %12s %8s\n", "kernel", "time(s)", "% Total")
		for _, k := range r.Kernels {
			fmt.Fprintf(w, "%-36s %12.4f %7.2f%%\n", k.Kernel, k.Seconds, k.Percent)
			total += k.Seconds
		}
		fmt.Fprintf(w, "%-36s %12.4f\n", "total", total)
	}
	if r.ImbalanceRatio > 0 {
		fmt.Fprintf(w, "\nload imbalance (max/mean thread busy) %.3f, barrier wait %.2f%% of thread time\n",
			r.ImbalanceRatio, 100*r.BarrierWaitShare)
	}

	if len(r.Sites) > 0 {
		fmt.Fprintf(w, "\n%-22s %10s %8s %9s %12s %10s  %s\n",
			"barrier site", "crossings", "last=tid", "share", "wait(s)", "max(ms)", "cause")
		for _, sr := range r.Sites {
			fmt.Fprintf(w, "%-22s %10d %8d %8.0f%% %12.4f %10.3f  %s\n",
				sr.Site, sr.Crossings, sr.DominantTid, 100*sr.DominantShare,
				sr.WaitSeconds, 1e3*sr.MaxWaitSeconds, sr.Cause)
		}
	}

	header := true
	for _, pr := range r.Phases {
		if pr.CriticalSeconds == 0 {
			continue
		}
		if header {
			fmt.Fprintf(w, "\n%-22s %12s %12s %10s\n", "phase", "critical(s)", "mean(s)", "imbalance")
			header = false
		}
		fmt.Fprintf(w, "%-22s %12.4f %12.4f %10.3f\n",
			pr.Phase, pr.CriticalSeconds, pr.MeanSeconds, pr.ImbalanceRatio)
	}

	if len(r.Chains) > 0 {
		fmt.Fprintf(w, "\nlast-arriver chains (most recent steps):\n")
		for _, sc := range r.Chains {
			fmt.Fprintf(w, "  step %d:", sc.Step)
			for _, l := range sc.Links {
				fmt.Fprintf(w, " %s←t%d(%.0fµs)", l.Site, l.Tid, l.MaxWaitMicros)
			}
			fmt.Fprintln(w)
		}
	}

	if len(r.WhatIf) > 0 {
		fmt.Fprintf(w, "\nwhat-if (predicted, ranked):\n")
		fmt.Fprintf(w, "  %-34s %12s %10s %9s\n", "scenario", "step(ms)", "MLUPS", "speedup")
		for _, sc := range r.WhatIf {
			fmt.Fprintf(w, "  %-34s %12.3f %10.2f %8.1f%%\n",
				sc.Name, 1e3*sc.StepSeconds, sc.MLUPS, sc.SpeedupPct)
		}
	}
}
