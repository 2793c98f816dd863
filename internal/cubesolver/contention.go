package cubesolver

import "time"

// BarrierSite identifies one of the global-barrier call sites of
// Algorithm 4's time step, so barrier-wait attribution can say not just
// *that* a thread waited but *which* dependency it waited on.
type BarrierSite int

const (
	// SiteAfterSpread orders force spreading before collision (the
	// correctness barrier this implementation adds to the paper's
	// schedule).
	SiteAfterSpread BarrierSite = iota
	// SiteAfterStream orders streaming before the velocity update (the
	// paper's 1st barrier).
	SiteAfterStream
	// SiteAfterVelocity orders the velocity update before fiber movement
	// (the paper's 2nd barrier).
	SiteAfterVelocity
	// SiteEndOfStep is the end-of-step barrier (the paper's 3rd),
	// publishing the buffer swap before any thread's next step.
	SiteEndOfStep
	// NumBarrierSites bounds the site space for fixed-size accumulators.
	NumBarrierSites
)

var barrierSiteNames = [NumBarrierSites]string{
	"after_spread", "after_stream", "after_velocity", "end_of_step",
}

// String names the barrier site.
func (b BarrierSite) String() string {
	if b < 0 || b >= NumBarrierSites {
		return "unknown_site"
	}
	return barrierSiteNames[b]
}

// ContentionObserver receives per-thread synchronization costs: how long
// each thread waited at each barrier site.
//
// Callbacks arrive concurrently from all worker threads; implementations
// must be safe for concurrent use.
type ContentionObserver interface {
	BarrierWait(site BarrierSite, tid int, wait time.Duration)
}

// BarrierArrivalObserver receives full arrival attribution for every
// instrumented barrier crossing: which thread arrived in which order
// (rank 0 = first), the crossing number (unique per release of the
// solver's barrier), the thread's wait, and whether it was the last
// arriver — the thread the whole team waited for. The critical-path
// profiler reconstructs per-step last-arriver chains from exactly these
// events. Callbacks arrive concurrently from all worker threads;
// implementations must be safe for concurrent use.
type BarrierArrivalObserver interface {
	BarrierArrive(site BarrierSite, tid, rank int, crossing uint64, wait time.Duration, last bool)
}

// CubeWorkObserver samples per-cube work: the wall-clock time thread tid
// spent processing cube c in phase p. The cube-indexed accumulation is
// what the load heatmap renders — which cubes are expensive, and which
// thread pays for them. Callbacks arrive concurrently from all workers.
type CubeWorkObserver interface {
	CubeWork(tid, c int, p Phase, d time.Duration)
}

// waitBarrier is the instrumented barrier: a plain Barrier.Wait when
// neither a ContentionObserver nor a BarrierArrivalObserver is attached
// (the zero-overhead default), a timed wait attributed to (site, tid)
// otherwise.
func (s *Solver) waitBarrier(site BarrierSite, tid int) {
	if s.Contention == nil && s.Arrivals == nil {
		s.barrier.Wait()
		return
	}
	s.timedBarrier.Wait(int(site), tid)
}

// recordBarrierWait adapts par.BarrierWaitFunc to the observer; it is
// bound once at construction so waitBarrier allocates nothing per call.
// waitBarrier only routes here while Contention is attached, but the
// field is re-read and guarded so detaching the observer between steps
// degrades to a dropped sample instead of a panic.
func (s *Solver) recordBarrierWait(site, tid int, wait time.Duration) {
	obs := s.Contention
	if obs == nil {
		return
	}
	obs.BarrierWait(BarrierSite(site), tid, wait)
}

// recordBarrierArrive adapts par.BarrierArriveFunc to the observer; like
// recordBarrierWait it is bound once at construction, and the field is
// re-read and guarded so detaching the observer between steps degrades
// to a dropped sample instead of a panic.
func (s *Solver) recordBarrierArrive(site, tid, rank int, crossing uint64, wait time.Duration, last bool) {
	obs := s.Arrivals
	if obs == nil {
		return
	}
	obs.BarrierArrive(BarrierSite(site), tid, rank, crossing, wait, last)
}

// forOwnedCubesTimed is forOwnedCubes with per-cube wall-clock sampling
// when a CubeWorkObserver is attached; without one it is exactly
// forOwnedCubes.
func (s *Solver) forOwnedCubesTimed(tid int, p Phase, fn func(c int)) {
	if s.CubeWork == nil {
		s.forOwnedCubes(tid, fn)
		return
	}
	obs := s.CubeWork
	s.forOwnedCubes(tid, func(c int) {
		t0 := time.Now()
		fn(c)
		obs.CubeWork(tid, c, p, time.Since(t0))
	})
}
