package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"lbmib/internal/grid"
)

// HealthError reports the step at which a simulation first violated a
// physics invariant, and why. When the violation can be pinned to a
// fluid node, Cell/HasCell name it, Cube is the flat index of the
// CubeSize³ tile containing it (−1 when no tile could be named), and
// Phase names the solver phase that computes the violated field — the
// evidence the flight recorder's fault localization starts from.
type HealthError struct {
	Step   int
	Reason string

	Cell     [3]int
	HasCell  bool
	Cube     int
	CubeSize int
	Phase    string
}

// Error implements error.
func (e *HealthError) Error() string {
	return fmt.Sprintf("telemetry: simulation unhealthy at step %d: %s", e.Step, e.Reason)
}

// HealthRecord is the JSON form of a HealthError, the same object under
// a post-mortem manifest's "health" key and a step-log line's
// "unhealthy" key: what broke and, when it could be localized, where.
type HealthRecord struct {
	Step   int    `json:"step"`
	Reason string `json:"reason"`
	Cell   []int  `json:"cell,omitempty"`
	Cube   int    `json:"cube"` // flat cube index, −1 when not localized
	Phase  string `json:"phase,omitempty"`
}

// Record converts e to its JSON form, or nil for a nil e. An error that
// names no tile size (one not built from a digest) names no cube either.
func (e *HealthError) Record() *HealthRecord {
	if e == nil {
		return nil
	}
	h := &HealthRecord{Step: e.Step, Reason: e.Reason, Cube: e.Cube, Phase: e.Phase}
	if e.CubeSize == 0 {
		h.Cube = -1
	}
	if e.HasCell {
		h.Cell = []int{e.Cell[0], e.Cell[1], e.Cell[2]}
	}
	return h
}

// WatchdogConfig tunes the physics watchdog.
type WatchdogConfig struct {
	// MassDriftTol is the allowed relative drift of total distribution
	// mass from the first checked state. The BGK collision and the
	// boundary conditions used here conserve mass to floating-point
	// rounding, so the default 1e-6 is generous for a healthy run and
	// catches blow-ups orders of magnitude before they reach NaN.
	MassDriftTol float64
	// MaxVelocity is the largest admissible fluid speed. The default is
	// the lattice sound speed 1/√3 ≈ 0.577: beyond it the D3Q19 model is
	// meaningless. Tighter values (≈0.1) catch marginal runs earlier.
	MaxVelocity float64
	// CubeSize is ignored: violations are localized to the tiles of the
	// digest Check is handed, which the simulation facade cuts at the
	// engine's cube size.
	//
	// Deprecated: the digest carries the tile size.
	CubeSize int
	// Registry, when non-nil, receives lbmib_mass, lbmib_mass_drift,
	// lbmib_max_velocity and lbmib_unhealthy gauges updated on every
	// check, plus a labeled lbmib_unhealthy_cube gauge once a violation
	// is localized.
	Registry *Registry
}

// Phase names used for violation attribution: the distributions are
// produced by the collide/stream phase, ρ and u by the moment update.
// They match core.Phase strings so localization reports read the
// same as phase profiles.
const (
	phaseCollideStream  = "collide_stream"
	phaseUpdateVelocity = "update_velocity"
)

// Watchdog checks per-step physics health: total mass drift, maximum
// velocity, and NaN/Inf contamination of ρ and u, which the moments carry
// from any non-finite distribution. The
// first violation is latched — Healthy() turns false, Err() returns a
// *HealthError naming the exact step, and later Checks return the same
// error without re-evaluating, so a driver can abort or merely flag the
// run. Checks read a per-tile digest (grid.DigestGrid), so a latched
// failure also names the first offending cell and cube.
type Watchdog struct {
	cfg WatchdogConfig

	mu       sync.Mutex
	refMass  float64
	refTiles []float64
	haveRef  bool
	checks   int
	failErr  *HealthError
	gMass    *Gauge
	gDrift   *Gauge
	gMaxVel  *Gauge
	gHealthy *Gauge
}

// NewWatchdog builds a watchdog; zero config fields take the documented
// defaults.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.MassDriftTol == 0 {
		cfg.MassDriftTol = 1e-6
	}
	if cfg.MaxVelocity == 0 {
		cfg.MaxVelocity = 1 / math.Sqrt(3)
	}
	w := &Watchdog{cfg: cfg}
	if r := cfg.Registry; r != nil {
		w.gMass = r.Gauge("lbmib_mass", "Total distribution mass of the fluid grid.")
		w.gDrift = r.Gauge("lbmib_mass_drift", "Relative total-mass drift from the first watchdog check.")
		w.gMaxVel = r.Gauge("lbmib_max_velocity", "Largest fluid speed (lattice units).")
		w.gHealthy = r.Gauge("lbmib_unhealthy", "1 once the watchdog has flagged the run, else 0.")
	}
	return w
}

// Check evaluates the digest of the state after the given step. It
// returns nil while the run is healthy and the latched *HealthError once
// it is not. The digest's one pass over the nodes already holds total
// and per-tile mass, the maximum speed and the first non-finite node, so
// a check reads no fluid state; violations are localized to d's tiles.
// The check that latches also sets the lbmib_unhealthy_cube gauge, once
// w's lock is released: registering a series takes the registry's.
func (w *Watchdog) Check(step int, d *grid.DigestGrid) error {
	herr, latched := w.check(step, d)
	if herr == nil {
		return nil
	}
	if r := w.cfg.Registry; latched && r != nil && herr.Cube >= 0 {
		labels := []Label{L("cube", strconv.Itoa(herr.Cube)), L("phase", herr.Phase)}
		if herr.HasCell {
			c := herr.Cell
			labels = append(labels, L("cell", fmt.Sprintf("%d,%d,%d", c[0], c[1], c[2])))
		}
		r.Gauge("lbmib_unhealthy_cube",
			"1 for the first cube (and cell) the watchdog localized a violation to.",
			labels...).Set(1)
	}
	return herr
}

// check is Check under w's lock. It returns the latched error, nil while
// healthy, and whether this call latched it.
func (w *Watchdog) check(step int, d *grid.DigestGrid) (*HealthError, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failErr != nil {
		return w.failErr, false
	}
	w.checks++
	mass, maxV := d.Mass, d.MaxVel

	if !w.haveRef {
		w.haveRef = true
		w.refMass = mass
		w.refTiles = make([]float64, len(d.Tiles))
		for i := range d.Tiles {
			w.refTiles[i] = d.Tiles[i].Mass
		}
	}
	drift := 0.0
	if w.refMass != 0 {
		drift = math.Abs(mass-w.refMass) / math.Abs(w.refMass)
	}

	if w.gMass != nil {
		w.gMass.Set(mass)
		w.gDrift.Set(drift)
		w.gMaxVel.Set(maxV)
	}

	fail := func(reason, phase string, cell [3]int, hasCell bool, cube int) (*HealthError, bool) {
		w.failErr = &HealthError{
			Step: step, Reason: reason,
			Cell: cell, HasCell: hasCell,
			Cube: cube, CubeSize: d.K, Phase: phase,
		}
		if w.gHealthy != nil {
			w.gHealthy.Set(1)
		}
		return w.failErr, true
	}

	if d.BadCell[0] >= 0 {
		what, phase := describeBadNode(d)
		c := d.BadCell
		return fail(fmt.Sprintf("non-finite state at node (%d,%d,%d): %s", c[0], c[1], c[2], what),
			phase, c, true, d.TileOf(c[0], c[1], c[2]))
	}
	// Every node's ρ is finite here, but their sum may still overflow.
	if math.IsNaN(mass) || math.IsInf(mass, 0) {
		return fail(fmt.Sprintf("non-finite total mass %g", mass), phaseCollideStream, [3]int{}, false, -1)
	}
	if drift > w.cfg.MassDriftTol {
		cube := w.worstDriftTile(d)
		return fail(fmt.Sprintf("total mass drifted %.3g relative (tolerance %.3g): %g vs initial %g",
			drift, w.cfg.MassDriftTol, mass, w.refMass), phaseCollideStream, [3]int{}, false, cube)
	}
	if maxV > w.cfg.MaxVelocity {
		c := d.MaxVelCell
		return fail(fmt.Sprintf("max speed %.4g exceeds limit %.4g at node (%d,%d,%d)",
			maxV, w.cfg.MaxVelocity, c[0], c[1], c[2]),
			phaseUpdateVelocity, c, true, d.TileOf(c[0], c[1], c[2]))
	}
	return nil, false
}

// describeBadNode names the non-finite field of the digest's first bad
// node, ρ or else u, and the phase that produces both: the moment update.
// A non-finite distribution shows as a non-finite ρ, since a digest takes
// each node's mass from its moments (grid.TileDigest).
func describeBadNode(d *grid.DigestGrid) (what, phase string) {
	if rho := d.BadRho; math.IsNaN(rho) || math.IsInf(rho, 0) {
		return fmt.Sprintf("rho=%g", rho), phaseUpdateVelocity
	}
	u := d.BadVel
	return fmt.Sprintf("u=(%g,%g,%g)", u[0], u[1], u[2]), phaseUpdateVelocity
}

// worstDriftTile names the tile whose mass moved furthest from its
// reference, or −1 when the reference tiling doesn't match this digest.
func (w *Watchdog) worstDriftTile(d *grid.DigestGrid) int {
	if len(w.refTiles) != len(d.Tiles) {
		return -1
	}
	worst, worstDev := -1, 0.0
	for i := range d.Tiles {
		dev := math.Abs(d.Tiles[i].Mass - w.refTiles[i])
		if dev > worstDev {
			worst, worstDev = i, dev
		}
	}
	return worst
}

// Healthy reports whether no violation has been latched.
func (w *Watchdog) Healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failErr == nil
}

// Err returns the latched *HealthError, or nil while healthy.
func (w *Watchdog) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failErr == nil {
		return nil
	}
	return w.failErr
}

// FailStep returns the step of the first violation, or −1 while healthy.
func (w *Watchdog) FailStep() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failErr == nil {
		return -1
	}
	return w.failErr.Step
}

// Checks returns how many digests have been evaluated (latched failures
// excluded).
func (w *Watchdog) Checks() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.checks
}
