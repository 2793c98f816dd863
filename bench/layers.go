package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"lbmib"
	"lbmib/internal/core"
	"lbmib/internal/cube"
	"lbmib/internal/fiber"
	"lbmib/internal/flightrec"
	"lbmib/internal/grid"
	"lbmib/internal/ibm"
	"lbmib/internal/lattice"
	"lbmib/internal/output"
	"lbmib/internal/par"
	"lbmib/internal/validate"
)

// probe samples a cheap call for the traced run: at least 11 samples and
// 0.1 s, median reported. The per-layer metrics are not gated, so they
// get a smaller budget than the end-to-end samples.
func (b *bench) probe(fn func() float64) float64 {
	return median(b.sample(11, 0.1, fn))
}

// costly samples a call that may take a second: it stops at 11 samples or
// once 0.4 s are spent, so an expensive call is taken once or twice and a
// cheap one often enough for a median.
func (b *bench) costly(fn func() float64) float64 {
	var xs []float64
	for total := 0.0; len(xs) < b.reps(11) && (len(xs) == 0 || total < 0.4); {
		d := fn()
		xs = append(xs, d)
		total += d
	}
	return median(xs)
}

// reps is how often a probe repeats something: n times, once in a smoke run.
func (b *bench) reps(n int) int {
	if b.opt.smoke {
		return 1
	}
	return n
}

// tracedRun repeats the workload with spans kept in memory, measures
// every layer from outside through its public functions, and writes the
// spans to outDir/trace_<workload>.json. It is the source of every
// per-layer metric.
func (b *bench) tracedRun(outDir string) (map[string]float64, error) {
	m := map[string]float64{}
	set := func(name string, v float64) { m[name] = v }

	tri := triadProbe(b.opt.smoke)
	debug.FreeOSMemory()
	set("machine.triad_gbs", tri.GBs)
	b.note("machine.triad_gbs: single thread, arrays of %.0f MiB each, reported last-level cache %.0f MiB",
		float64(tri.ArrayBytes)/(1<<20), float64(tri.LLCBytes)/(1<<20))
	set("grid.bytes_node", float64(unsafe.Sizeof(grid.Node{})))

	b.latticeProbes(set)
	b.structureProbes(set)
	set("par.barrier_ns", b.barrierProbe())

	tr := newTracer(b.w.name, fmt.Sprintf("%s-seed%d", b.w.name, b.opt.seed))
	root := tr.begin("run")
	if err := b.tracedProduction(tr, set); err != nil {
		return nil, err
	}
	if err := b.kernelSplit(tr, set, tri.GBs); err != nil {
		return nil, err
	}
	tr.end(root)
	b.check("span tree is well formed", checkTree(tr.spans))

	if err := b.engineProbes(set); err != nil {
		return nil, err
	}
	if err := b.observeProbe(set); err != nil {
		return nil, err
	}
	if err := b.setupProbes(set); err != nil {
		return nil, err
	}
	set("bench.ref_linf", b.verifyAgainstReference())

	path := filepath.Join(outDir, "trace_"+b.w.name+".json")
	if err := tr.write(path, b.host); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	b.note("%d spans written to %s", len(tr.spans), path)
	return m, nil
}

// latticeProbes times the three lattice primitives over 4096
// pre-generated node states (ns per call).
func (b *bench) latticeProbes(set func(string, float64)) {
	const n = 4096
	r := rand.New(rand.NewSource(b.opt.seed))
	rho := make([]float64, n)
	u := make([][3]float64, n)
	f := make([][3]float64, n)
	g := make([][lattice.Q]float64, n)
	for i := range rho {
		rho[i] = 0.95 + 0.1*r.Float64()
		for c := 0; c < 3; c++ {
			u[i][c] = 0.1 * (r.Float64() - 0.5)
			f[i][c] = 1e-4 * (r.Float64() - 0.5)
		}
		lattice.Equilibrium(rho[i], u[i], &g[i])
	}
	var out [lattice.Q]float64
	var vel [3]float64
	perCall := func(fn func(i int)) float64 {
		return b.probe(func() float64 {
			return timed(func() {
				for i := 0; i < n; i++ {
					fn(i)
				}
			})
		}) / n * 1e9
	}
	set("lattice.equilibrium_ns", perCall(func(i int) { lattice.Equilibrium(rho[i], u[i], &out) }))
	set("lattice.guoforce_ns", perCall(func(i int) { lattice.GuoForce(tau, u[i], f[i], &out) }))
	set("lattice.moments_ns", perCall(func(i int) { sink += lattice.Moments(&g[i], f[i], &vel) }))
	sink += out[1] + vel[0]
}

// probeSheet is the fixed structure the fiber, ibm and sheet-output
// probes run on: the sheet_cube sheet, bent so no force term vanishes.
func probeSheet() *fiber.Sheet {
	sh := fiber.NewSheet(fiber.Params{NumFibers: 52, NodesPerFiber: 52, Width: 20.8, Height: 20.8,
		Origin: [3]float64{16.3, 21.7, 5.9}, Ks: 0.05, Kb: 0.001})
	for i := range sh.X {
		dy, dz := sh.X[i][1]-32, sh.X[i][2]-16
		sh.X[i][0] += 0.002 * (dy*dy + dz*dz)
	}
	return sh
}

// structureProbes times the fiber-force and delta-function primitives on
// probeSheet over a 64×64×32 slab grid (ns per fiber node), and the sheet
// VTK writer.
func (b *bench) structureProbes(set func(string, float64)) {
	sh := probeSheet()
	n := sh.NumNodes()
	perNode := func(fn func()) float64 {
		return b.probe(func() float64 { return timed(fn) }) / float64(n) * 1e9
	}
	set("fiber.bending_ns_node", perNode(func() { sh.ComputeBendingForce(0, n) }))
	set("fiber.stretching_ns_node", perNode(func() { sh.ComputeStretchingForce(0, n) }))
	sh.ComputeElasticForce(0, n)

	g := grid.New(64, 64, 32)
	area := sh.AreaElement()
	var st ibm.Stencil
	set("ibm.stencil_ns", perNode(func() {
		for i := 0; i < n; i++ {
			st.Compute(sh.X[i])
		}
	}))
	set("ibm.spread_ns_node", perNode(func() {
		for i := 0; i < n; i++ {
			ibm.Spread(g, sh.X[i], sh.Force[i], area)
		}
	}))
	set("ibm.interpolate_ns_node", perNode(func() {
		for i := 0; i < n; i++ {
			sh.Vel[i] = ibm.Interpolate(g, sh.X[i])
		}
	}))
	sink += st.Wx[0]

	set("output.sheet_vtk_ms", b.probe(func() float64 {
		return timed(func() { output.WriteSheetVTK(io.Discard, sh) }) //nolint:errcheck // io.Discard cannot fail
	})*1e3)
}

// barrierProbe times one crossing of par.Barrier with the host's thread
// count of participants (ns per crossing).
func (b *bench) barrierProbe() float64 {
	const crossings = 20000
	n := b.host.Threads
	return b.probe(func() float64 {
		bar := par.NewBarrier(n)
		var wg sync.WaitGroup
		t0 := time.Now()
		for t := 0; t < n; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < crossings; i++ {
					bar.Wait()
				}
			}()
		}
		wg.Wait()
		return time.Since(t0).Seconds()
	}) / crossings * 1e9
}

// tracedBlocks is how many traced blocks (and as many untraced ones,
// interleaved) the traced run drives: four, or one where a single block
// already holds 64 steps.
func (b *bench) tracedBlocks() int {
	if b.blockSteps >= 64 {
		return 1
	}
	return min(4, b.blocks)
}

// tracedProduction drives the workload as the untraced run does, under
// spans: run → setup → lbmib.New; run → block[i] → step[j]; run →
// checkpoint, restore, output.*. Untraced blocks of a twin simulation
// alternate with the traced ones, so the cost of tracing at step
// granularity is measured against the same minutes of the host.
func (b *bench) tracedProduction(tr *tracer, set func(string, float64)) error {
	var sim, twin *lbmib.Simulation
	var err error
	setup := tr.begin("setup")
	tr.in("lbmib.New", func() { sim, err = lbmib.New(b.config()) })
	if err == nil {
		tr.in("lbmib.New(untraced twin)", func() { twin, err = lbmib.New(b.config()) })
	}
	if err != nil {
		return err
	}
	defer sim.Close()  //nolint:errcheck // no trace file configured
	defer twin.Close() //nolint:errcheck // no trace file configured
	mass0 := initialMass(sim)
	warm := min(3, b.warmup)
	tr.in("warmup", func() { sim.Run(warm); twin.Run(warm) })
	runtime.GC()
	tr.end(setup)

	ref := newReference(b.plain().Threads)
	var stepMS, tracedRate, plainRate, refRate []float64
	for i := 0; i < b.tracedBlocks(); i++ {
		refRate = append(refRate, ref.burstUpdates()/tr.in("reference_burst", func() { ref.burst() })/1e6)
		d := tr.in(fmt.Sprintf("untraced_block[%d]", i), func() { twin.Run(b.blockSteps) })
		plainRate = append(plainRate, b.nodes*float64(b.blockSteps)/d/1e6)

		d = tr.in(fmt.Sprintf("block[%d]", i), func() {
			for j := 0; j < b.blockSteps; j++ {
				stepMS = append(stepMS, 1e3*tr.in(fmt.Sprintf("step[%d]", j), sim.Step))
			}
		})
		tracedRate = append(tracedRate, b.nodes*float64(b.blockSteps)/d/1e6)
		b.attempted += b.blockSteps
		if !stepsOK(sim) {
			b.failed += b.blockSteps
		}
	}
	set("lbmib.mlups", median(plainRate))
	set("bench.ref_mlups", median(refRate))
	set("lbmib.step_ms_p50", median(stepMS))
	set("lbmib.step_ms_p95", percentile(stepMS, 95))
	b.note("lbmib.step_ms_p50/p95: %d single Step() calls", len(stepMS))
	set("bench.trace_overhead_pct", 100*(1-median(tracedRate)/median(plainRate)))

	var ckpt bytes.Buffer
	set("lbmib.checkpoint_s", tr.in("checkpoint", func() { err = sim.Checkpoint(&ckpt) }))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	set("lbmib.checkpoint_mb", float64(ckpt.Len())/1e6)
	var restored *lbmib.Simulation
	set("lbmib.restore_s", tr.in("restore", func() {
		restored, err = lbmib.Restore(bytes.NewReader(ckpt.Bytes()), b.config())
	}))
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	defer restored.Close() //nolint:errcheck // no trace file configured
	ckpt = bytes.Buffer{}

	var fluid countWriter
	set("output.fluid_vtk_s", tr.in("output.WriteFluidVTK", func() { err = sim.WriteFluidVTK(&fluid) }))
	if err != nil {
		return fmt.Errorf("fluid VTK: %w", err)
	}
	set("output.fluid_vtk_mb", fluid.mb())
	b.check("fluid VTK matches its header", checkFluidVTK(&fluid, int(b.nodes)))
	if sim.HasSheet() {
		tr.in("output.WriteSheetVTK", func() { err = sim.WriteSheetVTK(io.Discard) })
		if err == nil {
			tr.in("output.WriteSheetCSV", func() { err = sim.WriteSheetCSV(io.Discard) })
		}
		if err != nil {
			return fmt.Errorf("sheet output: %w", err)
		}
	}

	set("bench.mass_drift", b.verifyFinal(sim, mass0))
	b.verifyRestore(sim, restored)
	return nil
}

// buildSheets builds the structure of a configuration the way lbmib.New
// does, for driving a core.Solver directly.
func buildSheets(cfg lbmib.Config) []*fiber.Sheet {
	var out []*fiber.Sheet
	for _, sc := range cfg.Sheets {
		out = append(out, fiber.NewSheet(fiber.Params{
			NumFibers: sc.NumFibers, NodesPerFiber: sc.NodesPerFiber,
			Width: sc.Width, Height: sc.Height, Origin: sc.Origin, Ks: sc.Ks, Kb: sc.Kb,
		}))
	}
	return out
}

func coreBC(bd lbmib.Boundary) core.BC {
	if bd == lbmib.NoSlip {
		return core.BounceBack
	}
	return core.Periodic
}

// coreSolver builds the workload's problem as the sequential core.Solver.
func (b *bench) coreSolver() (*core.Solver, error) {
	cfg := b.plain()
	return core.NewSolver(core.Config{
		NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ, Tau: cfg.Tau, BodyForce: cfg.BodyForce,
		BCX: coreBC(cfg.BoundaryX), BCY: coreBC(cfg.BoundaryY), BCZ: coreBC(cfg.BoundaryZ),
		LidVelocity: cfg.LidVelocity, Sheets: buildSheets(cfg),
	})
}

// kernelSplit gives the per-kernel split: the workload's problem as a
// core.Solver whose nine public kernel methods are called in Algorithm 1
// order, a span around each, under run → kernel_split → step[j]. A twin
// solver driven by Step() checks that this is bitwise the same stepping.
func (b *bench) kernelSplit(tr *tracer, set func(string, float64), triadGBs float64) error {
	s, err := b.coreSolver()
	if err != nil {
		return err
	}
	twin, err := b.coreSolver()
	if err != nil {
		return err
	}
	kernels := []struct {
		metric string
		fn     func()
	}{
		{"core.k1_bending_ms", s.ComputeBendingForce},
		{"core.k2_stretching_ms", s.ComputeStretchingForce},
		{"core.k3_elastic_ms", s.ComputeElasticForce},
		{"core.k4_spread_ms", s.SpreadForce},
		{"core.k5_collide_ms", s.ComputeCollision},
		{"core.k6_stream_ms", s.StreamDistribution},
		{"core.k7_update_ms", s.UpdateVelocity},
		{"core.k8_move_ms", s.MoveFibers},
		{"core.k9_copy_ms", s.CopyDistribution},
	}
	steps := min(5, max(3, b.blockSteps/3))
	split := tr.begin("kernel_split")
	ms := make([][]float64, len(kernels))
	var stepIDs []int
	for j := 0; j < steps+1; j++ {
		if j == 0 { // warm the caches, untraced
			s.Step()
			continue
		}
		id := tr.begin(fmt.Sprintf("step[%d]", j-1))
		for k, kn := range kernels {
			ms[k] = append(ms[k], 1e3*tr.in(kn.metric[:len(kn.metric)-3], kn.fn))
		}
		s.AdvanceStep()
		tr.end(id)
		stepIDs = append(stepIDs, id)
	}
	tr.end(split)

	med := map[string]float64{}
	for k, kn := range kernels {
		med[kn.metric] = median(ms[k])
		set(kn.metric, med[kn.metric])
	}
	set("core.collide_ns_node", med["core.k5_collide_ms"]*1e6/b.nodes)
	set("core.stream_ns_node", med["core.k6_stream_ms"]*1e6/b.nodes)
	// Bytes the four fluid kernels move per node update, computed from
	// the array sizes (cache misses ignored): collide reads ρ, u, force
	// and g and writes g; stream reads g and writes g'; update reads g'
	// and force and writes ρ, u; copy reads g' and writes g.
	const df, vec, scalar = lattice.Q * 8, 3 * 8, 8
	const bytesNode = (scalar + 2*vec + 2*df) + 2*df + (df + vec + scalar + vec) + 2*df
	set("core.bytes_node_computed", bytesNode)
	fluidMS := med["core.k5_collide_ms"] + med["core.k6_stream_ms"] + med["core.k7_update_ms"] + med["core.k9_copy_ms"]
	set("core.roofline_pct", 100*bytesNode*b.nodes/(fluidMS/1e3)/1e9/triadGBs)
	b.note("core.roofline_pct: computed bytes x measured node rate of kernels 5, 6, 7, 9 over machine.triad_gbs")

	// A layer's self time is its span minus its children: here the step
	// spans hold nothing but the kernel calls, so the kernels must
	// account for them.
	self := selfTimes(tr.spans)
	var worst float64
	for _, id := range stepIDs {
		sp := tr.spans[id]
		worst = max(worst, float64(self[id])/float64(sp.End-sp.Start))
	}
	var splitErr error
	if worst > 0.05 {
		splitErr = fmt.Errorf("kernel spans leave %.1f%% of a step span uncovered", 100*worst)
	}
	b.check("kernel spans sum to within 5% of their step spans", splitErr)

	twin.Run(steps + 1)
	d, err := validate.Grids(twin.Fluid, s.Fluid)
	if err == nil && d.MaxAbs != 0 { //lint:allow floatcheck -- bitwise contract
		err = fmt.Errorf("kernel-by-kernel stepping differs from Step(): %v", d)
	}
	b.check("kernel-by-kernel stepping equals Step() bitwise", err)
	return nil
}

// variant returns the workload's problem on another engine.
func (b *bench) variant(kind lbmib.SolverKind, threads int, float32Dist bool) lbmib.Config {
	cfg := b.plain()
	cfg.Solver, cfg.Threads, cfg.Float32 = kind, threads, float32Dist
	if cfg.CubeSize == 0 {
		cfg.CubeSize = 8
	}
	return cfg
}

// engineProbes runs every parallel engine on the workload's problem.
// step_ms_p50 is the per-step time at the host's thread count, median
// over blocks; par_eff_2t is rate(2 threads) / (2 × rate(1 thread)),
// the median over adjacent 1-thread/2-thread block pairs so that slow
// drift of the host cancels.
func (b *bench) engineProbes(set func(string, float64)) error {
	pairs := b.reps(3)
	n := min(4, max(1, b.blockSteps/4))
	t := b.host.Threads
	for _, e := range []struct {
		pkg  string
		kind lbmib.SolverKind
	}{
		{"cubesolver", lbmib.CubeBased},
		{"omp", lbmib.OpenMP},
		{"fused", lbmib.Fused},
	} {
		one, err := lbmib.New(b.variant(e.kind, 1, false))
		if err != nil {
			return err
		}
		many, err := lbmib.New(b.variant(e.kind, t, false))
		if err != nil {
			one.Close() //nolint:errcheck // no trace file configured
			return err
		}
		one.Run(1)
		many.Run(1)
		var eff, stepMS, cpuMS []float64
		for p := 0; p < pairs; p++ {
			t1 := timed(func() { one.Run(n) })
			cpu0 := cpuSeconds()
			tn := timed(func() { many.Run(n) })
			cpuMS = append(cpuMS, 1e3*(cpuSeconds()-cpu0)/float64(n))
			eff = append(eff, t1/(2*tn))
			stepMS = append(stepMS, 1e3*tn/float64(n))
		}
		one.Close()  //nolint:errcheck // no trace file configured
		many.Close() //nolint:errcheck // no trace file configured
		set(e.pkg+".step_ms_p50", median(stepMS))
		set(e.pkg+".par_eff_2t", median(eff))
		if e.kind == lbmib.CubeBased {
			set("cubesolver.cpu_ms_step", median(cpuMS))
		}
	}
	if b.host.Degraded {
		b.note("par_eff_2t: single-core host, both sides ran 1 thread")
	}
	for _, e := range []struct {
		metric string
		cfg    lbmib.Config
	}{
		{"taskflow.step_ms_p50", b.variant(lbmib.TaskScheduled, t, false)},
		{"fused.f32_step_ms_p50", b.variant(lbmib.Fused, t, true)},
	} {
		sim, err := lbmib.New(e.cfg)
		if err != nil {
			return err
		}
		sim.Run(1)
		var stepMS []float64
		for p := 0; p < pairs; p++ {
			stepMS = append(stepMS, 1e3*timed(func() { sim.Run(n) })/float64(n))
		}
		sim.Close() //nolint:errcheck // no trace file configured
		set(e.metric, median(stepMS))
	}
	b.note("engine probes: %d blocks of %d steps per engine on this workload's problem, %d thread(s)", pairs, n, t)
	return nil
}

// observeProbe measures what running observed costs on the workload's
// problem: chunks of a plain simulation alternate with chunks of one
// carrying registry, watchdog, step log and flight recorder. The
// recorder snapshots once per chunk (not every 64 steps) so that a short
// probe sees the snapshot step; observe_overhead_pct compares median
// step times and so leaves that step out, snapshot_step_ms is that step.
func (b *bench) observeProbe(set func(string, float64)) error {
	plain, err := lbmib.New(b.plain())
	if err != nil {
		return err
	}
	defer plain.Close() //nolint:errcheck // no trace file configured
	// Chunk length: 4 steps on the slowest problem, 8 elsewhere.
	n := min(8, max(4, b.blockSteps))
	observed, err := lbmib.New(observe(b.plain(), flightrec.Config{SnapshotEvery: n}))
	if err != nil {
		return err
	}
	defer observed.Close() //nolint:errcheck // no trace file configured
	plain.Run(1)
	observed.Run(1)
	var plainMS, obsMS, snapMS []float64
	for c := 0; c < b.reps(2); c++ {
		plainMS = append(plainMS, 1e3*timed(func() { plain.Run(n) })/float64(n))
		slowest := 0.0
		for i := 0; i < n; i++ {
			d := 1e3 * timed(observed.Step)
			obsMS = append(obsMS, d)
			slowest = max(slowest, d)
		}
		snapMS = append(snapMS, slowest)
	}
	if err := observed.Health(); err != nil {
		return fmt.Errorf("observed probe: %w", err)
	}
	set("lbmib.observe_overhead_pct", 100*(median(obsMS)/median(plainMS)-1))
	set("flightrec.snapshot_step_ms", median(snapMS))
	b.note("lbmib.observe_overhead_pct: median of %d observed Step() calls against %d plain chunks of %d steps", len(obsMS), len(plainMS), n)

	g := plain.FluidSnapshot()
	dg, err := grid.NewDigestGrid(g.NX, g.NY, g.NZ, 4)
	if err != nil {
		return err
	}
	set("grid.digest_ms", 1e3*b.costly(func() float64 {
		return timed(func() { err = g.Digest(dg) })
	}))
	return err
}

// setupProbes times the constructors behind setup_s on the workload's
// grid, each cold (memory returned to the OS before every sample).
func (b *bench) setupProbes(set func(string, float64)) error {
	cfg := b.plain()
	var sim *lbmib.Simulation
	var err error
	set("lbmib.new_ms", 1e3*b.costly(func() float64 {
		var d float64
		if sim, d, err = coldNew(sim, b.config()); err != nil {
			return 1 // leave the sampling loop; err is returned below
		}
		return d
	}))
	if err != nil {
		return err
	}
	sim.Close() //nolint:errcheck // no trace file configured

	var g *grid.Grid
	set("grid.new_ms", 1e3*b.costly(func() float64 {
		g = nil
		debug.FreeOSMemory()
		return timed(func() { g = grid.New(cfg.NX, cfg.NY, cfg.NZ) })
	}))
	k := cfg.CubeSize
	if k == 0 {
		k = 8
	}
	l, err := cube.NewLayout(cfg.NX, cfg.NY, cfg.NZ, k)
	if err != nil {
		return err
	}
	set("cube.fromgrid_ms", 1e3*b.costly(func() float64 {
		return timed(func() { err = l.FromGrid(g) })
	}))
	set("cube.togrid_ms", 1e3*b.costly(func() float64 {
		return timed(func() { g = l.ToGrid() })
	}))
	return err
}
