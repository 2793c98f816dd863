package perfmon

import (
	"time"

	"lbmib/internal/core"
)

// Fixed synthetic event streams, one per vocabulary a Profile serves.
// Every duration is a whole number of microseconds and nothing reads a
// clock, so a stream yields the same profile on every run.

const us = time.Microsecond

// cubeStream is the cube engine's schedule: 4 threads, 70 steps (more
// than the default 64-step ring, so slots recycle), each thread reporting
// every phase once per step and every site crossed once per step with the
// last arriver waiting 0. Thread 2 is a persistent collide_stream
// straggler; the update_velocity slowest thread rotates with the step.
func cubeStream() []core.Event {
	const threads, steps = 4, 70
	var out []core.Event
	var crossing uint64
	cross := func(step int, site core.BarrierSite, busy []time.Duration) {
		last, max := 0, time.Duration(0)
		for tid, d := range busy {
			if d > max {
				last, max = tid, d
			}
		}
		for rank, tid := 0, 0; tid < threads; tid++ {
			if tid != last {
				out = append(out, core.Event{Kind: core.BarrierArrive, Step: step, Site: site, Tid: tid, Rank: rank, Crossing: crossing, D: max - busy[tid]})
				rank++
			}
		}
		out = append(out, core.Event{Kind: core.BarrierArrive, Step: step, Site: site, Tid: last, Rank: threads - 1, Crossing: crossing, Last: true})
		crossing++
	}
	phase := func(step int, ph core.Phase, d func(tid int) time.Duration) []time.Duration {
		busy := make([]time.Duration, threads)
		for tid := range busy {
			busy[tid] = d(tid)
			out = append(out, core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: ph, D: busy[tid]})
		}
		return busy
	}
	for step := 0; step < steps; step++ {
		cross(step, core.SiteAfterSpread, phase(step, core.PhaseFibersForce, func(tid int) time.Duration {
			return time.Duration(200+10*tid+step%3) * us
		}))
		cross(step, core.SiteAfterStream, phase(step, core.PhaseCollideStream, func(tid int) time.Duration {
			if tid == 2 {
				return time.Duration(3000+step) * us
			}
			return time.Duration(1000+20*tid) * us
		}))
		cross(step, core.SiteAfterVelocity, phase(step, core.PhaseUpdateVelocity, func(tid int) time.Duration {
			return time.Duration(500+4*((tid+step)%4)) * us
		}))
		move := phase(step, core.PhaseMoveFibers, func(tid int) time.Duration { return time.Duration(100+7*tid) * us })
		swap := phase(step, core.PhaseCopy, func(tid int) time.Duration { return time.Duration(1+tid) * us })
		for tid := range move {
			move[tid] += swap[tid]
		}
		cross(step, core.SiteEndOfStep, move)
	}
	return out
}

// ompStream is the loop-parallel engine's schedule: 4 threads, 3 steps,
// a coordinator KernelDone per kernel and a RegionDone per parallel
// region. Spreading (kernel 4) runs as two regions per step, a scatter
// whose slowest thread is 1 and a reduction whose slowest thread is 0;
// kernel 9 is a swap with no region.
func ompStream() []core.Event {
	const threads, steps = 4, 3
	base := [core.NumKernels + 1]time.Duration{0, 50, 40, 30, 0, 3000, 800, 700, 400, 0}
	var out []core.Event
	region := func(step int, k core.Kernel, busy []time.Duration) time.Duration {
		out = append(out, core.Event{Kind: core.RegionDone, Step: step, Kernel: k, Busy: busy})
		var max time.Duration
		for _, d := range busy {
			if d > max {
				max = d
			}
		}
		return max
	}
	for step := 0; step < steps; step++ {
		for _, k := range core.Kernels() {
			var wall time.Duration
			switch k {
			case core.KSpreadForce:
				wall = region(step, k, []time.Duration{600 * us, 900 * us, 600 * us, 600 * us}) +
					region(step, k, []time.Duration{300 * us, 100 * us, 100 * us, 100 * us})
			case core.KCopyDistribution:
				wall = 2 * us
			default:
				busy := make([]time.Duration, threads)
				for tid := range busy {
					busy[tid] = (base[k] + time.Duration(10*tid*int(k)+step)) * us
				}
				wall = region(step, k, busy)
			}
			out = append(out, core.Event{Kind: core.KernelDone, Step: step, Kernel: k, D: wall + 5*us})
		}
	}
	return out
}

// seqStream is the sequential engine's schedule: 5 steps of the nine
// coordinator kernel timings and nothing else.
func seqStream() []core.Event {
	base := [core.NumKernels + 1]time.Duration{0, 30, 20, 5, 700, 30000, 6000, 12000, 600, 5000}
	var out []core.Event
	for step := 0; step < 5; step++ {
		for _, k := range core.Kernels() {
			out = append(out, core.Event{Kind: core.KernelDone, Step: step, Kernel: k, D: (base[k] + time.Duration(step*int(k))) * us})
		}
	}
	return out
}
