package main

import (
	"fmt"
	"math"
	"strings"

	"lbmib"
	"lbmib/internal/crosscheck"
	"lbmib/internal/validate"
)

// massDriftTol bounds the relative change of total mass over the timed
// window; BGK collision, bounce-back walls and the moving lid all conserve
// mass to rounding.
const massDriftTol = 1e-9

// refSteps is how far the engine and the sequential reference run before
// they are compared.
const refSteps = 10

// check records one verification check as an operation: it counts in
// ok_share, and a failure is printed and fails the run.
func (b *bench) check(name string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.out, "FAILED check %q: %v\n", name, err)
	}
}

// deterministic reports whether cfg's engine owes the sequential
// reference bitwise equality, by the crosscheck package's own rule: the
// multi-threaded omp, cube and fused engines order spread sums differently
// from the reference, so with a structure and more than one thread they
// owe validate.DefaultTol instead. (That rule reads Config.Sheets only,
// which is why the workloads never use the single-Sheet convenience.)
func deterministic(cfg lbmib.Config) bool {
	return crosscheck.Deterministic(crosscheck.Engine(cfg.Solver.String()), crosscheck.Case{Config: cfg})
}

// compare returns the largest absolute difference between two
// simulations' physical fluid fields and sheet node positions.
func compare(a, b *lbmib.Simulation) (float64, error) {
	d, err := validate.GridsPhysics(a.FluidSnapshot(), b.FluidSnapshot())
	if err != nil {
		return 0, err
	}
	linf := d.MaxAbs
	for i := 0; i < a.NumSheets(); i++ {
		xa, err := a.SheetPositionsAt(i)
		if err != nil {
			return 0, err
		}
		xb, err := b.SheetPositionsAt(i)
		if err != nil {
			return 0, err
		}
		for n := range xa {
			for c := 0; c < 3; c++ {
				linf = math.Max(linf, math.Abs(xa[n][c]-xb[n][c]))
			}
		}
	}
	return linf, nil
}

// withinContract judges a difference under the contract cfg's engine
// owes: exactly zero when deterministic, validate.DefaultTol otherwise.
func withinContract(cfg lbmib.Config, linf float64) error {
	tol := validate.DefaultTol
	if deterministic(cfg) {
		tol = 0
	}
	if !(linf <= tol) {
		return fmt.Errorf("max |Δ| = %.3e exceeds %.1e", linf, tol)
	}
	return nil
}

// verifyFinal checks the state after the timed window: every field
// finite, mass conserved. It returns the relative mass drift.
func (b *bench) verifyFinal(sim *lbmib.Simulation, mass0 float64) float64 {
	g := sim.FluidSnapshot()
	bad := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		s := n.Rho + n.Vel[0] + n.Vel[1] + n.Vel[2]
		for _, v := range n.Buf(g.Cur()) {
			s += v
		}
		if !finite(s) {
			bad++
		}
	}
	for i := 0; i < sim.NumSheets(); i++ {
		xs, _ := sim.SheetPositionsAt(i)
		for _, x := range xs {
			if !finite(x[0] + x[1] + x[2]) {
				bad++
			}
		}
	}
	var err error
	if bad > 0 {
		err = fmt.Errorf("%d non-finite fluid or fiber nodes", bad)
		// The per-block samples missed it: the steps cannot be located, so
		// none of them counts as done.
		if steps := b.blocks * b.blockSteps; b.failed < steps {
			b.failed = steps
		}
	}
	b.check("all fields finite after the timed window", err)

	drift := math.Abs(g.TotalMass()-mass0) / mass0
	err = nil
	if !(drift <= massDriftTol) {
		err = fmt.Errorf("relative mass drift %.3e exceeds %.1e", drift, massDriftTol)
	}
	b.check("mass conserved over the timed window", err)
	return drift
}

// verifyAgainstReference runs the workload's engine and a fresh
// Sequential reference for refSteps on the same configuration and holds
// the difference to the crosscheck contract. It returns the difference.
func (b *bench) verifyAgainstReference() float64 {
	steps := refSteps
	if b.opt.smoke {
		steps = 2
	}
	linf, err := func() (float64, error) {
		cfg := b.config()
		eng, err := lbmib.New(cfg)
		if err != nil {
			return 0, err
		}
		defer eng.Close() //nolint:errcheck // no trace file configured
		refCfg := b.plain()
		refCfg.Solver, refCfg.Threads = lbmib.Sequential, 1
		ref, err := lbmib.New(refCfg)
		if err != nil {
			return 0, err
		}
		defer ref.Close() //nolint:errcheck // no trace file configured
		eng.Run(steps)
		ref.Run(steps)
		linf, err := compare(ref, eng)
		if err != nil {
			return 0, err
		}
		return linf, withinContract(cfg, linf)
	}()
	b.check(fmt.Sprintf("%v engine equals the sequential reference after %d steps", b.plain().Solver, steps), err)
	return linf
}

// verifyRestore advances the original and the restored simulation one
// step each and demands they agree: Checkpoint → Restore → 1 step must
// equal continuing 1 step.
func (b *bench) verifyRestore(sim, restored *lbmib.Simulation) {
	sim.Step()
	restored.Step()
	linf, err := compare(sim, restored)
	if err == nil {
		err = withinContract(sim.Config(), linf)
	}
	if err == nil && sim.StepCount() != restored.StepCount() {
		err = fmt.Errorf("step count %d after restore, %d continuing", restored.StepCount(), sim.StepCount())
	}
	b.check("Checkpoint, Restore, 1 step equals continuing 1 step", err)
}

// checkFluidVTK holds a fluid VTK stream to its own header: POINT_DATA
// names every fluid node, and the body has one velocity line and one
// density line per point after the 11 header lines.
func checkFluidVTK(c *countWriter, nodes int) error {
	var points int
	for _, line := range strings.Split(string(c.head), "\n") {
		if _, err := fmt.Sscanf(line, "POINT_DATA %d", &points); err == nil {
			break
		}
	}
	if points != nodes {
		return fmt.Errorf("header declares %d points, grid has %d", points, nodes)
	}
	if want := int64(11 + 2*points); c.lines != want {
		return fmt.Errorf("%d lines for %d points, want %d", c.lines, points, want)
	}
	return nil
}
