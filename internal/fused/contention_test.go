package fused

import (
	"sync"
	"testing"

	"lbmib/internal/core"
)

// recordingArrivals counts barrier arrivals and checks wait and rank
// invariants inline.
type recordingArrivals struct {
	t     *testing.T
	nthr  int
	mu    sync.Mutex
	total int
}

func (r *recordingArrivals) Emit(e core.Event) {
	if e.Kind != core.BarrierArrive {
		return
	}
	site, tid, rank, wait, last := e.Site, e.Tid, e.Rank, e.D, e.Last
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if rank < 0 || rank >= r.nthr {
		r.t.Errorf("site %v tid %d: rank %d out of range", site, tid, rank)
	}
	if last {
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

// TestFusedInstrumentationBitwiseNeutral pins the zero-perturbation
// contract: attaching a probe must not change a single bit of the
// result (it only times existing barriers and adds a measurement-only
// end-of-sweep barrier). The cross-engine conformance table (root
// package) checks the same for every engine; this pins the sweep's own
// extra barrier close to its code.
func TestFusedInstrumentationBitwiseNeutral(t *testing.T) {
	const (
		threads = 3
		steps   = 8
	)
	plain := MustNewSolver(fusedTestConfig(threads, false))
	plain.Run(steps)
	defer plain.Close()

	inst := MustNewSolver(fusedTestConfig(threads, false))
	rec := &recordingArrivals{t: t, nthr: threads}
	inst.Probe = rec
	inst.Run(steps)
	defer inst.Close()

	if want := 2 * threads * steps; rec.total != want {
		t.Errorf("%d arrivals recorded, want %d (two sites per thread and step)", rec.total, want)
	}
	a, b := plain.Live(), inst.Live()
	for i := range a.Macros() {
		if a.Macros()[i].Rho != b.Macros()[i].Rho || a.Macros()[i].Vel != b.Macros()[i].Vel {
			t.Fatalf("node %d diverged with instrumentation attached", i)
		}
	}
}
