package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"lbmib"
	"lbmib/internal/flightrec"
	"lbmib/internal/telemetry"
)

// options are the command-line choices that shape one run.
type options struct {
	seed    int64
	seconds int  // length of the timed window; runSeconds gives the stated block counts
	smoke   bool // half-size problem, 2 blocks × 2 steps, minimal sampling: exercises the code, measures nothing
}

// runSeconds is the timed window BENCHMARK.json states (run_seconds): with
// -seconds equal to it every workload runs its stated blocks × steps.
const runSeconds = 12

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one workload invocation.
type bench struct {
	w    workload
	opt  options
	host host
	out  io.Writer // human-readable report

	blocks, blockSteps, warmup int
	chunks                     int     // Run calls per block, a reference burst after each
	nodes                      float64 // fluid nodes of the problem

	// Operations counted in ok_share: every timed step, and every
	// verification check.
	attempted, failed int
	notes             []string // sample counts and context printed with the metrics
}

func newBench(w workload, opt options, h host, out io.Writer) *bench {
	b := &bench{w: w, opt: opt, host: h, out: out,
		blocks: w.blocks, blockSteps: w.blockSteps, chunks: max(1, w.chunks), warmup: 10}
	if opt.seconds != runSeconds {
		b.blocks = max(3, int(math.Round(float64(w.blocks)*float64(opt.seconds)/runSeconds)))
	}
	if opt.smoke {
		b.blocks, b.blockSteps, b.chunks, b.warmup = 2, 2, 1, 1
	}
	cfg := b.plain()
	b.nodes = float64(cfg.NX) * float64(cfg.NY) * float64(cfg.NZ)
	return b
}

// plain generates the workload's problem without observers.
func (b *bench) plain() lbmib.Config {
	cfg := b.w.config(b.opt.seed, b.host.Threads)
	if b.opt.smoke {
		halve(&cfg)
	}
	return cfg
}

// halve shrinks every extent of a problem — grid, sheets and their
// origins — to half, keeping its shape: the smoke run's eighth-size
// stand-in, so the tests exercise every workload in seconds.
func halve(cfg *lbmib.Config) {
	cfg.NX, cfg.NY, cfg.NZ = cfg.NX/2, cfg.NY/2, cfg.NZ/2
	for _, sc := range cfg.Sheets { // freshly generated, not shared: halved in place
		sc.NumFibers, sc.NodesPerFiber = sc.NumFibers/2, sc.NodesPerFiber/2
		sc.Width, sc.Height = sc.Width/2, sc.Height/2
		sc.Origin = [3]float64{sc.Origin[0] / 2, sc.Origin[1] / 2, sc.Origin[2] / 2}
	}
}

// observe attaches what a production run carries — metrics registry,
// watchdog, JSONL step log and flight recorder — each fresh, because the
// watchdog and recorder latch per-run state. rec is the recorder
// configuration (zero value = default cadences).
func observe(cfg lbmib.Config, rec flightrec.Config) lbmib.Config {
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	cfg.Watchdog = telemetry.NewWatchdog(telemetry.WatchdogConfig{Registry: reg, CubeSize: cfg.CubeSize})
	cfg.LogWriter = io.Discard
	cfg.FlightRec = &rec
	return cfg
}

// config generates the configuration the workload runs with.
func (b *bench) config() lbmib.Config {
	if b.w.observed {
		return observe(b.plain(), flightrec.Config{})
	}
	return b.plain()
}

// sample calls fn until it has at least minN samples and minSeconds of
// accumulated measured time, and returns every sample. fn returns the
// seconds it measured, so it can leave preparation untimed.
func (b *bench) sample(minN int, minSeconds float64, fn func() float64) []float64 {
	if b.opt.smoke {
		minN, minSeconds = 2, 0
	}
	var xs []float64
	for total := 0.0; len(xs) < minN || total < minSeconds; {
		d := fn()
		xs = append(xs, d)
		total += d
	}
	return xs
}

// countWriter counts what is written to it and keeps the first bytes, so
// checkpoint and snapshot cost is measured without the shared host's disk.
type countWriter struct {
	n, lines int64
	head     []byte
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	c.lines += int64(bytes.Count(p, []byte{'\n'}))
	if room := 512 - len(c.head); room > 0 {
		c.head = append(c.head, p[:min(room, len(p))]...)
	}
	return len(p), nil
}

func (c *countWriter) mb() float64 { return float64(c.n) / 1e6 }

// coldNew times one lbmib.New as a fresh process would pay for it: the
// previous simulation is closed and its memory returned to the OS first,
// so every sample takes the allocation and page-fault cost.
func coldNew(prev *lbmib.Simulation, cfg lbmib.Config) (*lbmib.Simulation, float64, error) {
	if prev != nil {
		prev.Close() //nolint:errcheck // no trace file configured, Close cannot fail
	}
	debug.FreeOSMemory()
	t0 := time.Now()
	sim, err := lbmib.New(cfg)
	return sim, time.Since(t0).Seconds(), err
}

// snapshots writes what lbmib-sim writes per snapshot — fluid VTK, and
// sheet VTK + CSV when there is a structure — into memory and returns the
// seconds spent, checking the fluid VTK against its own header on request.
func (b *bench) snapshots(sim *lbmib.Simulation, verify bool) (float64, error) {
	var fluid countWriter
	var err error
	total := timed(func() { err = sim.WriteFluidVTK(&fluid) })
	if err == nil && sim.HasSheet() {
		total += timed(func() { err = sim.WriteSheetVTK(io.Discard) })
		if err == nil {
			total += timed(func() { err = sim.WriteSheetCSV(io.Discard) })
		}
	}
	if err != nil {
		return total, fmt.Errorf("writing snapshot: %w", err)
	}
	if verify {
		b.check("fluid VTK matches its header", checkFluidVTK(&fluid, int(b.nodes)))
	}
	return total, nil
}

// snapshotDue reports whether the production workload writes output files
// after block i: every snapshotEvery steps, as lbmib-sim -snap-every does,
// except after the last block, where the final output follows anyway.
func (b *bench) snapshotDue(i int) bool {
	done := (i + 1) * b.blockSteps
	return i < b.blocks-1 && done/snapshotEvery > (done-b.blockSteps)/snapshotEvery
}

// snapshotEvery is the production workload's output cadence in steps, the
// flight recorder's default snapshot cadence.
const snapshotEvery = 64

// stepsOK reports whether the simulation still looks healthy after a
// block: the watchdog (when configured) has not latched and the sampled
// densities and the sheet centroid are finite. A non-finite value never
// heals in LBM, so the full scan after the timed window catches whatever
// this sample misses.
func stepsOK(sim *lbmib.Simulation) bool {
	if sim.Health() != nil {
		return false
	}
	cfg := sim.Config()
	for i := 0; i < 8; i++ {
		x, y, z := (i&1)*(cfg.NX-1), (i>>1&1)*(cfg.NY-1), (i>>2&1)*(cfg.NZ-1)
		if !finite(sim.FluidDensity(x/2+cfg.NX/4, y/2+cfg.NY/4, z/2+cfg.NZ/4)) {
			return false
		}
	}
	if sim.HasSheet() {
		c, err := sim.SheetCentroid()
		if err != nil || !finite(c[0]+c[1]+c[2]) {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// initialMass sums the density over every fluid node through the facade's
// accessor — Σ g_i node by node — without materializing a snapshot, so
// reading it leaves no mark on the peak memory the run reports.
func initialMass(sim *lbmib.Simulation) float64 {
	cfg := sim.Config()
	m := 0.0
	for x := 0; x < cfg.NX; x++ {
		for y := 0; y < cfg.NY; y++ {
			for z := 0; z < cfg.NZ; z++ {
				m += sim.FluidDensity(x, y, z)
			}
		}
	}
	return m
}

// endToEndRun is the untraced run, the source of every end-to-end metric.
func (b *bench) endToEndRun() (map[string]float64, error) {
	// setup_s: repeated cold lbmib.New; the last simulation built is the
	// one the run continues with.
	var sim *lbmib.Simulation
	var newErr error
	setups := b.sample(11, 1, func() float64 {
		var d float64
		sim, d, newErr = coldNew(sim, b.config())
		return d
	})
	if newErr != nil {
		return nil, newErr
	}
	defer func() { sim.Close() }() //nolint:errcheck // no trace file configured
	setupS := median(setups)
	b.note("setup_s: median of %d cold lbmib.New calls", len(setups))

	mass0 := initialMass(sim)
	sim.Run(b.warmup)
	runtime.GC()
	// mem_mb: the peak so far, read before the reference kernel exists.
	memMB := statusMB("VmHWM")
	ref := newReference(b.plain().Threads)

	// The timed window: B equal blocks driven through Simulation.Run, as
	// lbmib-sim drives the facade, each block in chunks with a burst of
	// the reference kernel between them. Throughput is the median over
	// blocks, never one total.
	chunkSteps := b.blockSteps / b.chunks
	var blockS, rates, rel, burstS []float64
	snapshotS := 0.0
	before := ref.burst()
	for i := 0; i < b.blocks; i++ {
		var work, refS float64
		for c := 0; c < b.chunks; c++ {
			work += timed(func() { sim.Run(chunkSteps) })
			// The host speed a chunk saw is taken as the mean of the
			// bursts on either side of it.
			after := ref.burst()
			refS += (before + after) / 2
			burstS = append(burstS, after)
			before = after
		}
		blockS = append(blockS, work)
		rate := b.nodes * float64(b.blockSteps) / work
		rates = append(rates, rate/1e6)
		rel = append(rel, rate/(ref.burstUpdates()*float64(b.chunks)/refS))
		b.attempted += b.blockSteps
		if !stepsOK(sim) {
			b.failed += b.blockSteps
		}
		if b.w.observed && b.snapshotDue(i) {
			s, err := b.snapshots(sim, false)
			if err != nil {
				return nil, err
			}
			snapshotS += s
		}
	}
	refRate := ref.burstUpdates() * float64(len(burstS)) / sum(burstS)

	// End of the run as a user sees it: one checkpoint, one set of output
	// files, and on the production workload the restore that resumes it.
	var ckpt bytes.Buffer
	var ckptCount countWriter
	var ckptW io.Writer = &ckptCount
	if b.w.observed {
		ckptW = &ckpt // kept: Restore reads it back
	}
	var err error
	tailS := timed(func() { err = sim.Checkpoint(ckptW) })
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var restored *lbmib.Simulation
	if b.w.observed {
		tailS += timed(func() { restored, err = lbmib.Restore(bytes.NewReader(ckpt.Bytes()), b.config()) })
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		defer restored.Close() //nolint:errcheck // no trace file configured
	}
	s, err := b.snapshots(sim, true)
	if err != nil {
		return nil, err
	}
	tailS += s
	peakMB := statusMB("VmHWM")

	b.verifyFinal(sim, mass0)
	if restored != nil {
		b.verifyRestore(sim, restored)
	}
	b.verifyAgainstReference()

	// Time to solution, and the same in units of the time the reference
	// kernel needed for as many node updates as the window performed.
	runS := setupS + sum(blockS) + snapshotS + tailS
	updates := b.nodes * float64(b.blocks*b.blockSteps)
	b.note("absolute, carrying the host's drift (not gated): mlups %.4g 1e6/s (median of %d blocks, slowest %.4g, fastest %.4g), run_s %.4g s, reference kernel %.4g 1e6/s",
		median(rates), len(rates), percentile(rates, 0), percentile(rates, 100), runS, refRate/1e6)
	b.note("peak RSS at the end of the run, reference kernel and GC-timing-dependent garbage included: %.0f MB", peakMB)
	return map[string]float64{
		"setup_s":   setupS,
		"mlups_rel": median(rel),
		"run_rel":   runS * refRate / updates,
		"mem_mb":    memMB,
		"ok_share":  1 - float64(b.failed)/float64(b.attempted),
	}, nil
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}
