// Package flightrec is the library's always-on failure forensics layer:
// a bounded-overhead flight recorder that keeps the last N steps of a
// run — per-kernel and per-phase timings, per-cube mass/velocity/finite
// digests, contention shares — in a fixed-size ring, plus periodic
// in-memory checkpoints of the last known-healthy state. When the
// physics watchdog latches, a crosscheck diverges, or the driver
// panics, the recorder writes a schema-versioned post-mortem bundle
// (see bundle.go) whose fault-localization report bisects the per-cube
// digests to name the first cube, phase, and step where the invariant
// broke. The steady-state recording path takes one mutex and allocates
// nothing, so the recorder can stay on in production runs.
package flightrec

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/grid"
)

// Config tunes the recorder. The zero value of every field takes the
// documented default, so Config{Dir: "..."} is a working configuration.
type Config struct {
	// RingSize is how many most-recent steps the ring retains
	// (default 256).
	RingSize int
	// DigestEvery is the cadence in steps at which the ring keeps a
	// per-cube digest (default 8; 1 keeps every step). Digesting is the
	// only full-grid pass, so this is the overhead knob when the recorder
	// runs alone; a driver with a watchdog or step log digests every step
	// anyway, and the ring copies the same digest on its cadence.
	DigestEvery int
	// SnapshotEvery is the in-memory checkpoint cadence in steps
	// (default 64). Snapshots are only retained while the run is
	// healthy, so the bundle's checkpoint reproduces the failure from
	// at most SnapshotEvery steps before it.
	SnapshotEvery int
	// Dir is where WriteBundle materializes the post-mortem bundle.
	// Empty disables bundle writing (the ring still records).
	Dir string
}

func (c Config) withDefaults() Config {
	if c.RingSize < 1 {
		c.RingSize = 256
	}
	if c.DigestEvery < 1 {
		c.DigestEvery = 8
	}
	if c.SnapshotEvery < 1 {
		c.SnapshotEvery = 64
	}
	return c
}

// Record is one ring entry: everything the recorder knows about one
// step. Timing fields accumulate from the engine's events during the
// step; digests and aggregates land when the driver samples them.
type Record struct {
	Step int `json:"step"`
	// WallSeconds is the whole-step wall time; MLUPS the step's rate.
	WallSeconds float64 `json:"wallSeconds"`
	MLUPS       float64 `json:"mlups,omitempty"`
	// KernelSeconds[k-1] is kernel k's time (sequential/omp engines);
	// PhaseSeconds[p-1] sums phase p over worker threads (cube and fused
	// engines). Bundles written while the cluster engine existed also
	// carry a clusterPhaseSeconds array; decoding ignores it.
	KernelSeconds    [core.NumKernels]float64 `json:"kernelSeconds"`
	PhaseSeconds     [core.NumPhases]float64  `json:"phaseSeconds"`
	BarrierWaitShare float64                  `json:"barrierWaitShare,omitempty"`
	// HasDigest marks steps the full-grid digest ran on; the aggregates
	// and per-tile digests below are only meaningful then.
	HasDigest bool              `json:"hasDigest,omitempty"`
	Mass      float64           `json:"mass,omitempty"`
	MaxVel    float64           `json:"maxVel,omitempty"`
	NonFinite int               `json:"nonFinite,omitempty"`
	Digests   []grid.TileDigest `json:"digests,omitempty"`
}

// Recorder is the flight recorder. It is a core.Probe consuming kernel
// and phase events; the step an event carries must be the step number
// the driver passes to RecordStep. All methods are safe for concurrent
// use: engine worker threads report timings while the driver records
// step aggregates and a bundle writer snapshots the ring.
type Recorder struct {
	cfg Config

	mu       sync.Mutex
	slots    []Record
	lastStep int
	// tile-grid shape of the digests in the ring (set on first digest)
	tileK, tx, ty, tz int

	snapMu   sync.Mutex
	snapBufs [2]bytes.Buffer
	snapCur  int // index of the last completed snapshot, -1 if none
	snapStep int

	spec    RunSpec
	haveRun bool

	bundleMu   sync.Mutex
	bundleDir  string
	bundleDone bool

	auxMu sync.Mutex
	aux   map[string]func() ([]byte, error)
}

// SetAux registers a named auxiliary bundle section: when a bundle is
// written, fn is called and its bytes land next to the core evidence
// under the given file name (also listed in the manifest). The facade
// wires the critical-path profiler's report in as CritPathFile this
// way. Providers run at bundle-write time — after the failure — and
// are best effort: an error drops the section, never the bundle.
func (r *Recorder) SetAux(name string, fn func() ([]byte, error)) {
	r.auxMu.Lock()
	if r.aux == nil {
		r.aux = map[string]func() ([]byte, error){}
	}
	r.aux[name] = fn
	r.auxMu.Unlock()
}

// auxNames returns the registered section names, sorted for a
// deterministic manifest.
func (r *Recorder) auxNames() []string {
	r.auxMu.Lock()
	defer r.auxMu.Unlock()
	names := make([]string, 0, len(r.aux))
	for n := range r.aux {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// auxData runs one registered provider.
func (r *Recorder) auxData(name string) ([]byte, error) {
	r.auxMu.Lock()
	fn := r.aux[name]
	r.auxMu.Unlock()
	if fn == nil {
		return nil, nil
	}
	return fn()
}

// New builds a recorder; zero config fields take the documented
// defaults.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:      cfg,
		slots:    make([]Record, cfg.RingSize),
		lastStep: -1,
		snapCur:  -1,
		snapStep: -1,
	}
	for i := range r.slots {
		r.slots[i].Step = -1
	}
	return r
}

// Config returns the recorder's effective (defaulted) configuration.
func (r *Recorder) Config() Config { return r.cfg }

// SetRunSpec attaches the run description embedded in bundles so
// lbmib-sim postmortem can rebuild the configuration for replay.
func (r *Recorder) SetRunSpec(spec RunSpec) {
	r.mu.Lock()
	r.spec = spec
	r.haveRun = true
	r.mu.Unlock()
}

// slotFor returns the ring slot for step, resetting it when the slot
// still holds an evicted older step. Caller holds r.mu.
func (r *Recorder) slotFor(step int) *Record {
	s := &r.slots[step%len(r.slots)]
	if s.Step != step {
		d := s.Digests[:0] // keep the slot's tile buffer across reuse
		*s = Record{Step: step, Digests: d}
	}
	return s
}

// Emit implements core.Probe, accumulating kernel and phase durations
// into the event's step's record. Per-thread resolution lives in the
// tracer; the ring keeps phase sums over worker threads.
func (r *Recorder) Emit(e core.Event) {
	switch {
	case e.Kind == core.KernelDone && e.Kernel >= 1 && e.Kernel <= core.NumKernels:
		r.mu.Lock()
		r.slotFor(e.Step).KernelSeconds[e.Kernel-1] += e.D.Seconds()
		r.mu.Unlock()
	case e.Kind == core.PhaseDone && e.Phase >= 1 && e.Phase <= core.NumPhases:
		r.mu.Lock()
		r.slotFor(e.Step).PhaseSeconds[e.Phase-1] += e.D.Seconds()
		r.mu.Unlock()
	}
}

// RecordStep finalizes step's ring entry with whole-step aggregates.
func (r *Recorder) RecordStep(step int, wall time.Duration, mlups, barrierShare float64) {
	r.mu.Lock()
	s := r.slotFor(step)
	s.WallSeconds = wall.Seconds()
	s.MLUPS = mlups
	s.BarrierWaitShare = barrierShare
	if step > r.lastStep {
		r.lastStep = step
	}
	r.mu.Unlock()
}

// WantDigest reports whether step is on the digest cadence.
func (r *Recorder) WantDigest(step int) bool {
	return step%r.cfg.DigestEvery == 0
}

// WantSnapshot reports whether step is on the checkpoint cadence.
func (r *Recorder) WantSnapshot(step int) bool {
	return step%r.cfg.SnapshotEvery == 0
}

// RecordDigest copies a filled digest into step's ring entry, taking
// its tile size from d. The per-slot tile buffer is reused, so the
// steady state allocates nothing.
func (r *Recorder) RecordDigest(step int, d *grid.DigestGrid) {
	r.mu.Lock()
	s := r.slotFor(step)
	s.HasDigest = true
	s.Mass = d.Mass
	s.MaxVel = d.MaxVel
	s.NonFinite = d.NonFinite
	s.Digests = append(s.Digests[:0], d.Tiles...)
	r.tileK, r.tx, r.ty, r.tz = d.K, d.TX, d.TY, d.TZ
	if step > r.lastStep {
		r.lastStep = step
	}
	r.mu.Unlock()
}

// TakeSnapshot checkpoints the current state into memory via write
// (the facade passes Simulation.Checkpoint). Two buffers alternate so a
// snapshot that fails midway never destroys the previous good one. Call
// only while the run is healthy: the retained snapshot is the bundle's
// "last healthy checkpoint". A buffer is grown to the previous snapshot's
// length before it is written, so a snapshot of a run whose state size
// does not change reallocates at most once, never by repeated doubling.
func (r *Recorder) TakeSnapshot(step int, write func(io.Writer) error) error {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	next := (r.snapCur + 1) & 1
	r.snapBufs[next].Reset()
	if r.snapCur >= 0 {
		r.snapBufs[next].Grow(r.snapBufs[r.snapCur].Len())
	}
	if err := write(&r.snapBufs[next]); err != nil {
		return fmt.Errorf("flightrec: snapshot at step %d: %w", step, err)
	}
	r.snapCur = next
	r.snapStep = step
	return nil
}

// SnapshotStep returns the step of the retained snapshot, −1 if none.
func (r *Recorder) SnapshotStep() int {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.snapStep
}

// snapshotBytes returns a copy of the retained checkpoint and its step.
func (r *Recorder) snapshotBytes() ([]byte, int) {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	if r.snapCur < 0 {
		return nil, -1
	}
	return append([]byte(nil), r.snapBufs[r.snapCur].Bytes()...), r.snapStep
}

// LastStep returns the most recent step seen, −1 before any.
func (r *Recorder) LastStep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastStep
}

// Records returns the ring's live entries oldest-first as deep copies,
// safe to read while recording continues.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		if s.Step < 0 {
			continue
		}
		c := *s
		if s.Digests != nil {
			c.Digests = append([]grid.TileDigest(nil), s.Digests...)
		}
		out = append(out, c)
	}
	// Slot position is step%N, so position order is only step order up
	// to rotation — and a step that panicked mid-flight may sit ahead of
	// lastStep. Sort instead of walking the rotation.
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// tileShape returns the digest tile-grid shape seen so far.
func (r *Recorder) tileShape() (k, tx, ty, tz int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tileK, r.tx, r.ty, r.tz
}
