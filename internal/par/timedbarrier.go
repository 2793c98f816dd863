package par

import "time"

// BarrierArriveFunc receives full arrival attribution for one
// participant at one barrier crossing: the caller's step and call-site
// tags (small integers the barrier only passes through — the engines
// name their Algorithm-4 barrier sites with them), its arrival rank
// (0 = first), the crossing number (unique per release of the
// underlying barrier), its wait — the time between arriving and being
// released — and whether it was the last arriver, the thread that
// released everyone else. The last arriver's wait is exactly 0 by
// construction, not a small clock-read residue.
type BarrierArriveFunc func(step, site, tid, rank int, crossing uint64, wait time.Duration, last bool)

// TimedBarrier wraps a Barrier with per-participant wait attribution:
// every Wait is timed and reported to Arrive. The underlying barrier is
// shared — timed and plain Wait calls synchronize with each other, so a
// solver can switch instrumentation on without replacing its barrier.
//
// A TimedBarrier is a small value; constructing one per use is free.
// With Arrive nil it degrades to a plain Wait, so the wrapper itself is
// never the thing a caller must make conditional.
type TimedBarrier struct {
	B      *Barrier
	Arrive BarrierArriveFunc
}

// Wait blocks on the wrapped barrier, reports participant tid's arrival
// at the given step and site, and returns its arrival rank (0 = first
// to arrive; −1 on the uninstrumented path, which does not track
// ranks). The last thread to arrive records exactly zero wait — it
// never waited, it released the others — so the attribution flags slow
// threads by their *zero* wait while everyone else accumulated time
// waiting for them.
func (t TimedBarrier) Wait(step, site, tid int) int {
	if t.Arrive == nil {
		t.B.Wait()
		return -1
	}
	t0 := time.Now()
	rank, crossing, last := t.B.WaitRank()
	var w time.Duration
	if !last {
		w = time.Since(t0)
	}
	t.Arrive(step, site, tid, rank, crossing, w, last)
	return rank
}
