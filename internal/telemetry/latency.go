package telemetry

import "lbmib/internal/core"

// Latencies is the core.Probe that feeds a Registry's per-segment
// latency histograms: lbmib_kernel_seconds{kernel} from kernel events
// (sequential and OpenMP-style engines) or lbmib_phase_seconds{phase}
// from phase events (the others). Only one family is registered, so an
// exposition carries no forever-empty series.
type Latencies struct {
	kernel [core.NumKernels + 1]*Histogram
	phase  [core.NumPhases + 1]*Histogram
}

// NewLatencies registers the per-kernel histograms in r, or the
// per-phase ones.
func NewLatencies(r *Registry, kernels bool) *Latencies {
	l := &Latencies{}
	buckets := ExpBuckets(1e-5, 2, 18)
	if kernels {
		for k := core.Kernel(1); k <= core.NumKernels; k++ {
			l.kernel[k] = r.Histogram("lbmib_kernel_seconds",
				"Wall-clock time per kernel execution (Algorithm 1).",
				buckets, L("kernel", k.String()))
		}
		return l
	}
	for p := core.Phase(1); p <= core.NumPhases; p++ {
		l.phase[p] = r.Histogram("lbmib_phase_seconds",
			"Wall-clock time per worker per loop nest (Algorithm 4).",
			buckets, L("phase", p.String()))
	}
	return l
}

// Emit implements core.Probe.
func (l *Latencies) Emit(e core.Event) {
	switch {
	case e.Kind == core.KernelDone && e.Kernel >= 1 && e.Kernel <= core.NumKernels && l.kernel[e.Kernel] != nil:
		l.kernel[e.Kernel].Observe(e.D.Seconds())
	case e.Kind == core.PhaseDone && e.Phase >= 1 && e.Phase <= core.NumPhases && l.phase[e.Phase] != nil:
		l.phase[e.Phase].Observe(e.D.Seconds())
	}
}
