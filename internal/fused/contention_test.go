package fused

import (
	"sync"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
)

// recordingContention counts barrier-wait samples per site and tid.
type recordingContention struct {
	mu    sync.Mutex
	waits map[cubesolver.BarrierSite]map[int]int
}

func (r *recordingContention) BarrierWait(site cubesolver.BarrierSite, tid int, wait time.Duration) {
	r.mu.Lock()
	if r.waits == nil {
		r.waits = map[cubesolver.BarrierSite]map[int]int{}
	}
	if r.waits[site] == nil {
		r.waits[site] = map[int]int{}
	}
	r.waits[site][tid]++
	r.mu.Unlock()
}

// recordingArrivals counts last-arriver flags per site and checks wait
// and rank invariants inline.
type recordingArrivals struct {
	t     *testing.T
	nthr  int
	mu    sync.Mutex
	lasts map[cubesolver.BarrierSite]int
	total int
}

func (r *recordingArrivals) BarrierArrive(site cubesolver.BarrierSite, tid, rank int, crossing uint64, wait time.Duration, last bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if rank < 0 || rank >= r.nthr {
		r.t.Errorf("site %v tid %d: rank %d out of range", site, tid, rank)
	}
	if last {
		if r.lasts == nil {
			r.lasts = map[cubesolver.BarrierSite]int{}
		}
		r.lasts[site]++
		if wait != 0 {
			r.t.Errorf("site %v tid %d: last arriver recorded wait %v, want exactly 0", site, tid, wait)
		}
		if rank != r.nthr-1 {
			r.t.Errorf("site %v tid %d: last arriver has rank %d, want %d", site, tid, rank, r.nthr-1)
		}
	}
}

func fusedTestConfig(threads int, f32 bool) Config {
	return Config{
		Config: core.Config{
			NX: 16, NY: 12, NZ: 12,
			Tau:       0.8,
			BodyForce: [3]float64{1e-6, 0, 0},
		},
		Threads: threads,
		Float32: f32,
	}
}

// TestFusedBarrierAttribution runs the fused sweep with both observers
// attached and checks the two sweep barrier sites report: every step
// crosses SiteAfterStream and SiteEndOfStep once per thread, each
// crossing names exactly one last arriver, and the last arriver's wait
// is exactly zero.
func TestFusedBarrierAttribution(t *testing.T) {
	const (
		threads = 4
		steps   = 5
	)
	for _, f32 := range []bool{false, true} {
		s := MustNewSolver(fusedTestConfig(threads, f32))
		cont := &recordingContention{}
		arr := &recordingArrivals{t: t, nthr: threads}
		s.Contention = cont
		s.Arrivals = arr
		s.Run(steps)
		s.Close()

		for _, site := range []cubesolver.BarrierSite{cubesolver.SiteAfterStream, cubesolver.SiteEndOfStep} {
			for tid := 0; tid < threads; tid++ {
				if got := cont.waits[site][tid]; got != steps {
					t.Errorf("float32=%v: site %v tid %d recorded %d waits, want %d", f32, site, tid, got, steps)
				}
			}
			if got := arr.lasts[site]; got != steps {
				t.Errorf("float32=%v: site %v flagged %d last arrivers, want %d", f32, site, got, steps)
			}
		}
		if want := 2 * threads * steps; arr.total != want {
			t.Errorf("float32=%v: %d arrivals recorded, want %d", f32, arr.total, want)
		}
	}
}

// TestFusedInstrumentationBitwiseNeutral pins the zero-perturbation
// contract: attaching contention instrumentation must not change a
// single bit of the result (it only times existing barriers and adds a
// measurement-only end-of-sweep barrier).
func TestFusedInstrumentationBitwiseNeutral(t *testing.T) {
	const (
		threads = 3
		steps   = 8
	)
	plain := MustNewSolver(fusedTestConfig(threads, false))
	plain.Run(steps)
	defer plain.Close()

	inst := MustNewSolver(fusedTestConfig(threads, false))
	inst.Contention = &recordingContention{}
	inst.Arrivals = &recordingArrivals{t: t, nthr: threads}
	inst.Run(steps)
	defer inst.Close()

	a, b := plain.Snapshot(), inst.Snapshot()
	for i := range a.Nodes {
		if a.Nodes[i].Rho != b.Nodes[i].Rho || a.Nodes[i].Vel != b.Nodes[i].Vel { //lint:allow floatcheck -- bitwise-equality contract, not a tolerance check
			t.Fatalf("node %d diverged with instrumentation attached", i)
		}
	}
}
