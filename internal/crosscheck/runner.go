package crosscheck

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"

	"lbmib"
	"lbmib/internal/flightrec"
	"lbmib/internal/grid"
	"lbmib/internal/validate"
)

// Engine names one implementation under differential test; every engine
// is a facade engine addressed through lbmib.SolverKind.
type Engine string

// The engines the Runner exercises, one mode per facade engine.
const (
	EngineSequential Engine = "sequential"
	EngineOMP        Engine = "omp"
	EngineCube       Engine = "cube"
)

// Engines returns the engines applicable to the case. The cube engine
// requires every grid edge to be divisible by the cube size; for
// indivisible shapes the Runner instead asserts that it rejects the
// configuration.
func Engines(c Case) []Engine {
	es := []Engine{EngineSequential, EngineOMP}
	if CubeDivisible(c) {
		es = append(es, EngineCube)
	}
	return es
}

// Deterministic reports whether engine e owes the sequential reference
// bitwise equality on case c. Every engine does, at any thread count and
// with or without sheets, because the owners of the fluid spread in the
// reference's order (core.SpreadBox), so it reports true.
//
// Deprecated: every engine is held bitwise; the benchmark's verification
// pass (bench/verify.go) still calls it.
func Deterministic(e Engine, c Case) bool { return true }

// EngineReport is the per-engine verdict of one case.
type EngineReport struct {
	Engine   string   `json:"engine"`
	MaxAbs   float64  `json:"max_abs_diff"`       // vs the sequential reference
	Failures []string `json:"failures,omitempty"` // empty means the engine passed
	Bundle   string   `json:"bundle,omitempty"`   // post-mortem bundle dir, when recorded
}

// Result is the verdict of one case across all engines and oracles.
type Result struct {
	Seed     int64          `json:"seed"`
	OK       bool           `json:"ok"`
	Engines  []EngineReport `json:"engines"`
	Failures []string       `json:"failures,omitempty"` // reference/metamorphic/round-trip failures
}

// FailureSummary flattens every failure in the result into one string.
func (res Result) FailureSummary() string {
	var b bytes.Buffer
	for _, f := range res.Failures {
		fmt.Fprintf(&b, "case: %s\n", f)
	}
	for _, er := range res.Engines {
		for _, f := range er.Failures {
			fmt.Fprintf(&b, "%s: %s\n", er.Engine, f)
		}
	}
	return b.String()
}

// Runner executes cases across engines and applies the oracles.
type Runner struct {
	// MetaTol bounds the metamorphic symmetry comparisons, which reorder
	// per-node reductions but nothing else (default 1e-11).
	MetaTol float64
	// FlightRecDir, when non-empty, attaches a flight recorder to every
	// facade engine and writes a post-mortem bundle (reason "crosscheck")
	// under <dir>/seed<N>-<engine> for each engine that diverges.
	FlightRecDir string
}

// NewRunner returns a Runner with the default contracts.
func NewRunner() *Runner {
	return &Runner{MetaTol: 1e-11}
}

// state is a captured engine state: a fluid snapshot plus
// per-sheet node positions and velocities.
type state struct {
	grid   *grid.Snapshot
	sheetX [][][3]float64
	sheetV [][][3]float64
}

// capture snapshots a running simulation's state.
func capture(sim *lbmib.Simulation) state {
	st := state{grid: sim.FluidSnapshot()}
	for i := 0; i < sim.NumSheets(); i++ {
		x, _ := sim.SheetPositionsAt(i)
		v, _ := sim.SheetVelocitiesAt(i)
		st.sheetX = append(st.sheetX, x)
		st.sheetV = append(st.sheetV, v)
	}
	return st
}

// solverKind maps a facade engine name to its SolverKind.
func solverKind(e Engine) lbmib.SolverKind {
	switch e {
	case EngineOMP:
		return lbmib.OpenMP
	case EngineCube:
		return lbmib.CubeBased
	default:
		return lbmib.Sequential
	}
}

// configFor returns the case's configuration with engine e selected.
func configFor(c Case, e Engine) lbmib.Config {
	cfg := c.Config
	cfg.Solver = solverKind(e)
	return cfg
}

// newEngine instantiates engine e for the case, carrying a flight
// recorder when the Runner has a FlightRecDir so a divergence leaves
// forensics behind.
func (r *Runner) newEngine(c Case, e Engine) (*lbmib.Simulation, error) {
	cfg := configFor(c, e)
	if r.FlightRecDir != "" {
		cfg.FlightRec = &flightrec.Config{
			Dir: filepath.Join(r.FlightRecDir, fmt.Sprintf("seed%d-%s", c.Seed, e)),
		}
	}
	return lbmib.New(cfg)
}

// Run executes the case on every applicable engine and applies the
// differential, invariant, metamorphic and round-trip oracles.
func (r *Runner) Run(c Case) Result {
	res := Result{Seed: c.Seed}
	if c.Steps < 1 {
		c.Steps = 1
	}
	if c.CheckEvery < 1 {
		c.CheckEvery = 1
	}

	// The sequential reference, with invariants checked along the way.
	ref, err := r.newEngine(c, EngineSequential)
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("building sequential reference: %v", err))
		res.OK = false
		return res
	}
	refFinal, refFails := r.drive(ref, c)
	ref.Close()
	for _, f := range refFails {
		res.Failures = append(res.Failures, "sequential: "+f)
	}

	// The cube engine must reject indivisible shapes.
	if !CubeDivisible(c) {
		if eng, err := r.newEngine(c, EngineCube); err == nil {
			eng.Close()
			res.Failures = append(res.Failures,
				fmt.Sprintf("%s accepted indivisible grid %d×%d×%d with cube size %d",
					EngineCube, c.Config.NX, c.Config.NY, c.Config.NZ, c.Config.CubeSize))
		}
	}

	// Differential pass: every other engine against the reference.
	for _, e := range Engines(c) {
		if e == EngineSequential {
			continue
		}
		er := EngineReport{Engine: string(e)}
		eng, err := r.newEngine(c, e)
		if err != nil {
			er.Failures = append(er.Failures, fmt.Sprintf("constructor rejected valid config: %v", err))
			res.Engines = append(res.Engines, er)
			continue
		}
		final, fails := r.drive(eng, c)
		er.Failures = append(er.Failures, fails...)
		maxAbs, cmpFails := compareStates(refFinal, final)
		er.MaxAbs = maxAbs
		er.Failures = append(er.Failures, cmpFails...)
		// A diverged engine dumps its flight-recorder bundle before
		// teardown, so the trajectory that disagreed is kept.
		if len(er.Failures) > 0 && eng.FlightRecorder() != nil {
			if dir, err := eng.WritePostMortem("crosscheck"); err == nil {
				er.Bundle = dir
			}
		}
		eng.Close()
		res.Engines = append(res.Engines, er)
	}

	// Metamorphic symmetry oracles (fluid-only cases, sequential engine).
	if len(c.Config.Sheets) == 0 {
		res.Failures = append(res.Failures, r.metamorphic(c, refFinal)...)
	}

	// Mid-run checkpoint/restore must land back on the same trajectory.
	res.Failures = append(res.Failures, r.roundTrips(c)...)

	res.OK = len(res.Failures) == 0
	for _, er := range res.Engines {
		if len(er.Failures) > 0 {
			res.OK = false
		}
	}
	return res
}

// drive advances the engine to c.Steps, applying the invariant oracles
// every c.CheckEvery steps, and returns the final state.
func (r *Runner) drive(e *lbmib.Simulation, c Case) (state, []string) {
	var fails []string
	m0 := capture(e).grid.TotalMass()
	for done := 0; done < c.Steps; {
		n := c.CheckEvery
		if done+n > c.Steps {
			n = c.Steps - done
		}
		e.Run(n)
		done += n
		if msgs := checkInvariants(c, capture(e), m0); len(msgs) > 0 {
			for _, m := range msgs {
				fails = append(fails, fmt.Sprintf("step %d: %s", done, m))
			}
			break // the state is unphysical; later checks would cascade
		}
	}
	final := capture(e)
	fails = append(fails, checkMomentumSign(c, final)...)
	return final, fails
}

// compareStates diffs two engine states over the physical fields
// (distributions, velocity, density, sheet positions and velocities) and
// demands bitwise equality.
func compareStates(a, b state) (float64, []string) {
	var fails []string
	d, err := validate.GridsPhysics(a.grid, b.grid)
	if err != nil {
		return math.Inf(1), []string{err.Error()}
	}
	maxAbs := d.MaxAbs
	if !d.Within(0) {
		fails = append(fails, fmt.Sprintf("fluid state diverges: %v", d))
	}
	if len(a.sheetX) != len(b.sheetX) {
		return maxAbs, append(fails, fmt.Sprintf("sheet count %d vs %d", len(a.sheetX), len(b.sheetX)))
	}
	for i := range a.sheetX {
		for j := range a.sheetX[i] {
			for dim := 0; dim < 3; dim++ {
				dx := math.Abs(a.sheetX[i][j][dim] - b.sheetX[i][j][dim])
				dv := math.Abs(a.sheetV[i][j][dim] - b.sheetV[i][j][dim])
				if dx > maxAbs {
					maxAbs = dx
				}
				if dv > maxAbs {
					maxAbs = dv
				}
				if dx > 0 || dv > 0 {
					fails = append(fails, fmt.Sprintf(
						"sheet %d node %d diverges: |Δx|=%.3e |Δv|=%.3e",
						i, j, dx, dv))
					return maxAbs, fails
				}
			}
		}
	}
	return maxAbs, fails
}

// roundTrips checkpoints a fresh run of the case mid-way, restores it,
// finishes the run and demands the restored trajectory land on the
// uninterrupted one bit for bit, on every engine the case applies to.
func (r *Runner) roundTrips(c Case) []string {
	var fails []string
	for _, e := range Engines(c) {
		if msg := r.roundTrip(c, e); msg != "" {
			fails = append(fails, msg)
		}
	}
	return fails
}

func (r *Runner) roundTrip(c Case, e Engine) string {
	half := c.Steps / 2
	if half < 1 {
		half = 1
	}
	rest := c.Steps - half
	if rest < 0 {
		rest = 0
	}

	// Uninterrupted trajectory.
	full, err := r.newEngine(c, e)
	if err != nil {
		return fmt.Sprintf("round-trip %s: constructor: %v", e, err)
	}
	full.Run(c.Steps)
	want := capture(full)
	full.Close()

	// Interrupted: run half, checkpoint, restore, run the rest.
	first, err := r.newEngine(c, e)
	if err != nil {
		return fmt.Sprintf("round-trip %s: constructor: %v", e, err)
	}
	first.Run(half)
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		first.Close()
		return fmt.Sprintf("round-trip %s: checkpoint: %v", e, err)
	}
	first.Close()

	restored, err := lbmib.Restore(bytes.NewReader(buf.Bytes()), configFor(c, e))
	if err != nil {
		return fmt.Sprintf("round-trip %s: restore: %v", e, err)
	}
	restored.Run(rest)
	if got := restored.StepCount(); got != c.Steps {
		restored.Close()
		return fmt.Sprintf("round-trip %s: step count %d after restore, want %d", e, got, c.Steps)
	}
	got := capture(restored)
	restored.Close()

	if maxAbs, cmpFails := compareStates(want, got); len(cmpFails) > 0 {
		return fmt.Sprintf("round-trip %s: restored trajectory diverges (max|Δ|=%.3e): %s",
			e, maxAbs, cmpFails[0])
	}
	return ""
}
