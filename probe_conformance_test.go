// The conformance table of the event contract (core.Probe): what every
// schedule emits, per step, and that attaching a probe changes no bit of
// the result. One row per engine × team width × problem.
package lbmib

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"lbmib/internal/core"
)

// recordingProbe keeps every event in arrival order.
type recordingProbe struct {
	mu     sync.Mutex
	events []core.Event
}

func (r *recordingProbe) Emit(e core.Event) {
	e.Busy = append([]time.Duration(nil), e.Busy...) // the engine reuses it
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func TestProbeConformance(t *testing.T) {
	const steps, k = 3, 4
	problems := []struct {
		name string
		cfg  Config
	}{
		{"sheet", Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, BodyForce: [3]float64{1e-5, 0, 0}, Sheet: telemetrySheet()}},
		{"lid", Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, BoundaryZ: NoSlip, LidVelocity: [3]float64{0.03, 0, 0}}},
	}
	// Engines are built without any observability field, so the probe
	// attached below sees the engine's own step numbering. A checkpoint
	// is the whole state — every node, every sheet — bit for bit.
	state := func(sim *Simulation) string {
		var b bytes.Buffer
		if err := sim.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, e := range sampledEngines {
		for _, threads := range []int{1, 2} {
			for _, p := range problems {
				t.Run(fmt.Sprintf("%s/%dt/%s", e.name, threads, p.name), func(t *testing.T) {
					cfg := p.cfg
					cfg.Solver, cfg.Threads, cfg.CubeSize = e.kind, threads, k
					var sims [2]*Simulation // detached, observed
					for i := range sims {
						sim, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						defer sim.Close()
						sims[i] = sim
					}
					detached, observed := sims[0], sims[1]
					rec := &recordingProbe{}
					observed.problem.Probe = rec

					detached.Run(steps)
					observed.Run(steps)
					if state(detached) != state(observed) {
						t.Error("attaching a probe changed the result")
					}
					checkProbeEvents(t, e.name, rec.events, steps, threads, cfg.Sheet != nil)

					// Detached again, the schedule is silent and still on
					// the same trajectory (odd step count: the other
					// phase of the in-place array).
					n := len(rec.events)
					observed.problem.Probe = nil
					detached.Run(1)
					observed.Run(1)
					if len(rec.events) != n {
						t.Errorf("%d events after the probe was detached", len(rec.events)-n)
					}
					if state(detached) != state(observed) {
						t.Error("a run that was observed for a while diverged from one that never was")
					}
				})
			}
		}
	}
}

// eventRow is what the table counts events by: kind, step, thread (0
// for barrier arrivals, which are counted per site instead) and segment
// (kernel, phase or site).
type eventRow struct {
	kind           core.EventKind
	step, tid, seg int
}

// checkProbeEvents asserts one row of the table: the events an engine
// emitted over the given steps are exactly the ones its schedule has.
func checkProbeEvents(t *testing.T, engine string, events []core.Event, steps, threads int, fibers bool) {
	t.Helper()
	got := map[eventRow]int{}
	kernels := map[int][]core.Kernel{}     // step → kernel events in order
	crossings := map[uint64][]core.Event{} // crossing → arrivals
	for _, ev := range events {
		if ev.Step < 0 || ev.Step >= steps || ev.Tid < 0 || ev.Tid >= threads {
			t.Errorf("event %+v: step outside the %d run or thread outside the %d-wide team", ev, steps, threads)
		}
		row := eventRow{kind: ev.Kind, step: ev.Step}
		switch ev.Kind {
		case core.KernelDone:
			row.seg = int(ev.Kernel)
			kernels[ev.Step] = append(kernels[ev.Step], ev.Kernel)
		case core.RegionDone:
			if row.seg = int(ev.Kernel); len(ev.Busy) != threads {
				t.Errorf("region of kernel %v reports %d threads, want %d", ev.Kernel, len(ev.Busy), threads)
			}
		case core.PhaseDone:
			row.seg, row.tid = int(ev.Phase), ev.Tid
		case core.BarrierArrive:
			row.seg = int(ev.Site)
			crossings[ev.Crossing] = append(crossings[ev.Crossing], ev)
		}
		got[row]++
	}

	// What the schedule has, per step. Vocabulary: kernels 1–9, phases
	// 1–5, sites below NumBarrierSites; anything else is a surplus row.
	want := map[eventRow]int{}
	for st := 0; st < steps; st++ {
		phase := func(tid int, p core.Phase, n int) { want[eventRow{core.PhaseDone, st, tid, int(p)}] = n }
		sites := func(ss ...core.BarrierSite) {
			for _, site := range ss { // one crossing per step: an arrival per thread
				want[eventRow{core.BarrierArrive, st, 0, int(site)}] = threads
			}
		}
		switch engine {
		case "sequential", "omp", "fused": // fused: the omp engine, by alias
			if fmt.Sprint(kernels[st]) != fmt.Sprint(core.Kernels()) {
				t.Errorf("step %d kernel events %v, want Algorithm 1 order", st, kernels[st])
			}
			for _, k := range core.Kernels() {
				want[eventRow{core.KernelDone, st, 0, int(k)}] = 1
				// One region per kernel at any thread count, but none
				// for spreading or the moments pass without fibers (the
				// support is empty, core.Support); kernel 6 streams in
				// kernel 5's region, and kernel 9 has no second array to
				// copy.
				regions := 1
				if engine == "sequential" || k == core.KStreamDistribution || k == core.KCopyDistribution ||
					(k == core.KSpreadForce || k == core.KUpdateVelocity) && !fibers {
					regions = 0
				}
				want[eventRow{core.RegionDone, st, 0, int(k)}] = regions
			}
		case "cube":
			for tid := 0; tid < threads; tid++ {
				for p := core.Phase(1); p <= core.NumPhases; p++ {
					phase(tid, p, 1)
				}
			}
			// The after-spread and end-of-step barriers fold away when
			// they order nothing: one worker, or no fibers; the
			// after-velocity barrier without fibers, whose support is
			// empty.
			sites(core.SiteAfterStream)
			if fibers {
				sites(core.SiteAfterVelocity)
			}
			if threads > 1 && fibers {
				sites(core.SiteAfterSpread, core.SiteEndOfStep)
			}
		default:
			t.Fatalf("no row for engine %q", engine)
		}
	}
	for row, n := range got {
		if want[row] != n {
			t.Errorf("%d events %+v, want %d", n, row, want[row])
		}
	}
	for row, n := range want {
		if n != 0 && got[row] == 0 {
			t.Errorf("no event %+v, want %d", row, n)
		}
	}

	// Every crossing: one arrival per thread, all of one step and site,
	// ranks a permutation, exactly one last arriver, whose wait is 0.
	for c, arr := range crossings {
		ranks, lasts := map[int]bool{}, 0
		for _, a := range arr {
			ranks[a.Rank] = true
			if a.Step != arr[0].Step || a.Site != arr[0].Site {
				t.Errorf("crossing %d mixes (step %d, %v) with (step %d, %v)", c, arr[0].Step, arr[0].Site, a.Step, a.Site)
			}
			if a.Last {
				lasts++
				if a.D != 0 || a.Rank != threads-1 {
					t.Errorf("crossing %d: last arriver has wait %v and rank %d, want 0 and %d", c, a.D, a.Rank, threads-1)
				}
			}
		}
		if len(arr) != threads || len(ranks) != threads || lasts != 1 {
			t.Errorf("crossing %d: %d arrivals, %d distinct ranks, %d last arrivers; want %d, %d, 1", c, len(arr), len(ranks), lasts, threads, threads)
		}
	}
}
