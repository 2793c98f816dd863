package core

import "time"

// Phase identifies one of the five loop nests of Algorithm 4 — the
// per-thread segment vocabulary of the cube engine (the sequential and
// loop-parallel engines report Kernels).
type Phase int

// The five loop nests of Algorithm 4.
const (
	PhaseFibersForce    Phase = iota + 1 // 1st loop: fiber forces (kernels 1–3)
	PhaseCollideStream                   // 2nd loop: kernels 5–6 on owned cubes (the cube engine spreads, kernel 4, first)
	PhaseUpdateVelocity                  // 3rd loop: kernel 7 on owned cubes
	PhaseMoveFibers                      // 4th loop: kernel 8 on owned fibers
	PhaseCopy                            // 5th loop: kernel 9, empty — streaming in place leaves no second array to copy
)

// NumPhases is the number of loop nests per time step.
const NumPhases = 5

var phaseNames = [NumPhases + 1]string{
	"", "fiber_force_spread", "collide_stream", "update_velocity", "move_fibers", "swap_distribution",
}

// String names the phase.
func (p Phase) String() string {
	if p < 1 || p > NumPhases {
		return "unknown_phase"
	}
	return phaseNames[p]
}

// BarrierSite identifies one of the global-barrier call sites of
// Algorithm 4's time step, so barrier-wait attribution can say not just
// *that* a thread waited but *which* dependency it waited on.
type BarrierSite int

const (
	// SiteAfterSpread orders every fiber's elastic force (kernels 1–3)
	// before the owners spread it and collide: the correctness barrier
	// the cube engine adds to the paper's schedule. Its name, like
	// PhaseFibersForce's, dates from when spreading ran before it; both
	// are kept so recorded bundles and profiles still read.
	SiteAfterSpread BarrierSite = iota
	// SiteAfterStream orders streaming before the velocity update (the
	// paper's 1st barrier).
	SiteAfterStream
	// SiteAfterVelocity orders the velocity update before fiber movement
	// (the paper's 2nd barrier).
	SiteAfterVelocity
	// SiteEndOfStep is the end-of-step barrier (the paper's 3rd).
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

// Probe is the one event contract between the schedules and everything
// that measures them (DESIGN.md §18). An engine reaches it through
// Problem.Probe; nil — the default — is the uninstrumented path, which
// reads no clock. With a probe attached a schedule emits every event
// kind it has; a sink switches on Event.Kind and ignores the rest.
//
// Kernel and region events arrive from the goroutine that called Step;
// the other kinds arrive concurrently from the worker threads, so Emit
// must be safe for concurrent use.
type Probe interface {
	Emit(Event)
}

// EventKind says what an Event reports and which of its fields are set
// (Kind and Step always are).
type EventKind uint8

const (
	// KernelDone: the coordinator's wall time D for one Kernel of
	// Algorithm 1 (sequential and loop-parallel engines).
	KernelDone EventKind = iota
	// RegionDone: one parallel region of Kernel joined, and Busy[tid] is
	// how long each thread spent in its chunk (loop-parallel engine; a
	// kernel may have several regions). Busy is the engine's buffer,
	// reused by the next region: read it, do not keep it.
	RegionDone
	// PhaseDone: thread Tid spent D in loop nest Phase (cube engine:
	// once per thread that ran the phase). A schedule may
	// report a phase in several slices per step and thread; consumers
	// sum them.
	PhaseDone
	// BarrierArrive: thread Tid passed crossing Crossing of barrier Site
	// (the number is unique per release of the engine's barrier) as the
	// Rank-th arriver (0 = first) after waiting D. Exactly one arrival
	// per crossing is Last, and its D is exactly 0.
	BarrierArrive
)

// Event is one timing a schedule reports about itself.
type Event struct {
	Kind EventKind
	// Step is the emitting engine's count of completed steps when the
	// event's step began (0 for the first step after construction);
	// every event carries it, because a schedule may overlap steps.
	Step     int
	Tid      int
	Kernel   Kernel
	Phase    Phase
	Site     BarrierSite
	D        time.Duration
	Busy     []time.Duration
	Rank     int
	Crossing uint64
	Last     bool
}

// Timed runs fn; with a probe attached it reads the clock around it and
// emits e with D set to fn's duration — a schedule's kernel or phase.
func (p *Problem) Timed(e Event, fn func()) {
	if p.Probe == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	e.D = time.Since(t0)
	p.Probe.Emit(e)
}

// BarrierArrived reports one barrier arrival to the problem's probe, if
// any. It has the shape of par.BarrierArriveFunc (site as a plain int):
// an engine that owns a barrier binds it once, at construction, as its
// timed barrier's callback, so a timed wait allocates nothing — and a
// probe detached between steps costs a dropped sample, not a panic.
func (p *Problem) BarrierArrived(step, site, tid, rank int, crossing uint64, wait time.Duration, last bool) {
	if probe := p.Probe; probe != nil {
		probe.Emit(Event{Kind: BarrierArrive, Step: step, Site: BarrierSite(site),
			Tid: tid, Rank: rank, Crossing: crossing, D: wait, Last: last})
	}
}

// Probes fans every event out to each element in order. Whoever
// configures a run builds it once from the sinks that run wants.
type Probes []Probe

func (ps Probes) Emit(e Event) {
	for _, p := range ps {
		p.Emit(e)
	}
}
