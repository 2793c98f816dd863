package crosscheck

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"

	"lbmib"
	"lbmib/internal/flightrec"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
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

// state is a captured engine state for the physical oracles: a fluid
// snapshot plus per-sheet node positions.
type state struct {
	grid   *grid.Snapshot
	sheetX [][][3]float64
}

// capture snapshots a running simulation's state.
func capture(sim *lbmib.Simulation) state {
	st := state{grid: sim.FluidSnapshot()}
	for i := 0; i < sim.NumSheets(); i++ {
		x, _ := sim.SheetPositionsAt(i)
		st.sheetX = append(st.sheetX, x)
	}
	return st
}

// checkpoint returns the simulation's checkpoint: its whole state as
// bytes, which every engine writes alike for the same state.
func checkpoint(sim *lbmib.Simulation) ([]byte, error) {
	var buf bytes.Buffer
	err := sim.Checkpoint(&buf)
	return buf.Bytes(), err
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
// differential, invariant, metamorphic and round-trip oracles. The
// differential and round-trip oracles compare checkpoints: every final
// checkpoint must equal the sequential reference's byte for byte.
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
		return res
	}
	refFinal, refFails := r.drive(ref, c)
	want, err := checkpoint(ref)
	ref.Close()
	for _, f := range refFails {
		res.Failures = append(res.Failures, "sequential: "+f)
	}
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("sequential: checkpoint: %v", err))
		return res
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
		_, fails := r.drive(eng, c)
		er.Failures = append(er.Failures, fails...)
		if got, err := checkpoint(eng); err != nil {
			er.Failures = append(er.Failures, fmt.Sprintf("checkpoint: %v", err))
		} else if maxAbs, msg := diffCheckpoints(c, want, got); msg != "" {
			er.MaxAbs = maxAbs
			er.Failures = append(er.Failures, msg)
		}
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

	// A run checkpointed mid-way and finished on the next engine must land
	// on the reference's final state.
	es := Engines(c)
	for i, e := range es {
		if msg := r.roundTrip(c, e, es[(i+1)%len(es)], want); msg != "" {
			res.Failures = append(res.Failures, msg)
		}
	}

	res.OK = len(res.Failures) == 0
	for _, er := range res.Engines {
		if len(er.Failures) > 0 {
			res.OK = false
		}
	}
	return res
}

// drive advances the engine to c.Steps, applying the invariant oracles
// every c.CheckEvery steps, and returns the final state. Only the first
// check that fails is recorded: an unphysical state fails every later
// one too. The engine still runs to c.Steps, so that its checkpoint is
// taken at the reference's step and diffCheckpoints can name the first
// field that differs rather than the header's step count.
func (r *Runner) drive(e *lbmib.Simulation, c Case) (state, []string) {
	var fails []string
	m0 := capture(e).grid.TotalMass()
	for done := 0; done < c.Steps; {
		n := min(c.CheckEvery, c.Steps-done)
		e.Run(n)
		done += n
		if len(fails) > 0 {
			continue
		}
		for _, m := range checkInvariants(c, capture(e), m0) {
			fails = append(fails, fmt.Sprintf("step %d: %s", done, m))
		}
	}
	final := capture(e)
	fails = append(fails, checkMomentumSign(c, final)...)
	return final, fails
}

// diffCheckpoints compares got, an engine's checkpoint of case c, with
// want, the reference's. Unequal, it returns the largest |Δ| over their
// float64 words (+Inf if their lengths differ) and a failure naming where
// they first differ by the version-3 layout (lbmib's checkpoint.go): the
// header, 23 float64 per fluid node in x-major order, then per sheet of
// Config.Sheets four parameters, five arrays of 3 float64 per node and a
// flag byte per node. TestCheckpointDiffNamesTheField holds this walk to
// real checkpoints.
func diffCheckpoints(c Case, want, got []byte) (float64, string) {
	if bytes.Equal(want, got) {
		return 0, ""
	}
	if len(want) != len(got) {
		return math.Inf(1), fmt.Sprintf("checkpoint of %d bytes, the reference's %d", len(got), len(want))
	}
	first := 0
	for want[first] == got[first] {
		first++
	}
	maxAbs, off, where := 0.0, 8+28+8*len(c.Config.Sheets), "the header"
	// part covers the n bytes from off on, elements of size bytes: if the
	// first difference lies in them, name(i) names element i.
	part := func(n, size int, name func(i int) string) {
		if first >= off && first < off+n {
			where = name((first - off) / size)
		}
		for o := off; size%8 == 0 && o < off+n; o += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(want[o:]))
			if d := math.Abs(a - math.Float64frombits(binary.LittleEndian.Uint64(got[o:]))); d > maxAbs {
				maxAbs = d
			}
		}
		off += n
	}
	ny, nz, rec := c.Config.NY, c.Config.NZ, 8*(lattice.Q+4)
	part(c.Config.NX*ny*nz*rec, rec, func(i int) string {
		return fmt.Sprintf("fluid node (%d, %d, %d)", i/(ny*nz), i/nz%ny, i%nz)
	})
	for s, sc := range c.Config.Sheets {
		n := sc.NumFibers * sc.NodesPerFiber
		part(32, 32, func(int) string { return fmt.Sprintf("sheet %d, its parameters", s) })
		for _, a := range []string{"X", "Vel", "BendForce", "StretchForce", "Force"} {
			part(24*n, 24, func(i int) string { return fmt.Sprintf("sheet %d node %d, %s", s, i, a) })
		}
		part(n, 1, func(i int) string { return fmt.Sprintf("sheet %d node %d, Fixed", s, i) })
	}
	return maxAbs, fmt.Sprintf("checkpoint differs from the reference's (max|Δ|=%.3e), first at %s", maxAbs, where)
}

// roundTrip checkpoints a run of the case on engine from mid-way,
// restores the checkpoint onto engine to at another thread count,
// finishes the run there and demands the final checkpoint equal want,
// the reference's, byte for byte.
func (r *Runner) roundTrip(c Case, from, to Engine, want []byte) string {
	half := max(c.Steps/2, 1)
	cfg := configFor(c, to)
	cfg.Threads = 1 + c.Config.Threads%3 // never the case's own count
	name := fmt.Sprintf("round-trip %s → %s at %d threads", from, to, cfg.Threads)

	first, err := r.newEngine(c, from)
	if err != nil {
		return fmt.Sprintf("%s: constructor: %v", name, err)
	}
	first.Run(half)
	mid, err := checkpoint(first)
	first.Close()
	if err != nil {
		return fmt.Sprintf("%s: checkpoint: %v", name, err)
	}

	// The final checkpoint's header holds the step count, so a restore
	// that loses it differs from the reference's too.
	restored, err := lbmib.Restore(bytes.NewReader(mid), cfg)
	if err != nil {
		return fmt.Sprintf("%s: restore: %v", name, err)
	}
	restored.Run(c.Steps - half)
	got, err := checkpoint(restored)
	restored.Close()
	if err != nil {
		return fmt.Sprintf("%s: checkpoint: %v", name, err)
	}
	if _, msg := diffCheckpoints(c, want, got); msg != "" {
		return fmt.Sprintf("%s: restored trajectory diverges: %s", name, msg)
	}
	return ""
}
