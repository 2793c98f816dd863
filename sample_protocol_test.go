// Operation-sequence tests of the facade's sample protocol: seeded
// sequences of steps, runs, readers, restores and faults, driven on
// every parallel engine at one and two threads and on Sequential, must
// leave the same step log, the same ring digests, the same watchdog
// verdicts and the same reader bytes on each.
package lbmib

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"lbmib/internal/flightrec"
	"lbmib/internal/grid"
	"lbmib/internal/telemetry"
)

// The operations a sequence mixes; opPoison plants a NaN
// and ends the sequence with a run through it.
const (
	opStep = iota
	opRun
	opCheckpoint
	opRestore
	opSnapshot
	opVTK
	opSlice
	opPostMortem
	opHealth
	opPoints
	opRing
	opNumOps
	opPoison = opNumOps
)

// protoOp is one operation; arg is Run's step count or Restore's choice
// of the next engine.
type protoOp struct{ kind, arg int }

// protoCase is one seeded sequence with its telemetry configuration.
type protoCase struct {
	watchdog, log, rec bool
	digestEvery        int
	snapshotEvery      int
	ops                []protoOp
}

func newProtoCase(seed int64) protoCase {
	r := rand.New(rand.NewSource(seed))
	c := protoCase{
		watchdog:      r.Intn(3) != 0,
		log:           r.Intn(2) == 0,
		rec:           r.Intn(3) != 0,
		digestEvery:   []int{1, 2, 3, 8}[r.Intn(4)],
		snapshotEvery: []int{2, 3, 5, 64}[r.Intn(4)],
	}
	if !c.watchdog && !c.log && !c.rec {
		c.log = true
	}
	for i := 0; i < 25; i++ {
		op := protoOp{kind: r.Intn(opNumOps)}
		switch op.kind {
		case opRun:
			op.arg = 1 + r.Intn(6)
		case opRestore:
			op.arg = 1 + r.Intn(len(protoEngines)-1)
		}
		c.ops = append(c.ops, op)
	}
	if c.watchdog && r.Intn(2) == 0 {
		c.ops = append(c.ops[:r.Intn(len(c.ops))], protoOp{kind: opPoison})
	}
	return c
}

// protoEngine is one engine and width a sequence runs on.
type protoEngine struct {
	kind    SolverKind
	threads int
}

// protoEngines are the engines under test; Restore moves a sequence from
// one to another.
var protoEngines = []protoEngine{{OpenMP, 1}, {OpenMP, 2}, {CubeBased, 1}, {CubeBased, 2}}

// protoResult is what one drive of a sequence leaves: a transcript of every
// operation's observable result, the TotalMass readings (compared to a
// tolerance: TotalMass sums in storage order), the step log's lines,
// and the steps at which a planted NaN's run began and stopped with
// what the watchdog and the bundle said then.
type protoResult struct {
	transcript []string
	masses     []float64
	log        []string
	poisonedAt int
	stoppedAt  int
	flagged    string
	// bundled is whether the recorder of the poisoned run had written a
	// bundle before the NaN: the first bundle a recorder writes stays.
	bundled bool
}

// protoDrive runs c starting on e, or on Sequential throughout if ref.
func protoDrive(t *testing.T, c protoCase, e protoEngine, ref bool) protoResult {
	t.Helper()
	dir := t.TempDir()
	var out protoResult
	var log bytes.Buffer
	var wd *telemetry.Watchdog
	if c.watchdog {
		wd = telemetry.NewWatchdog(telemetry.WatchdogConfig{})
	}
	sims := 0
	config := func(e protoEngine) Config {
		cfg := Config{
			NX: 8, NY: 8, NZ: 8, Tau: 0.7,
			BodyForce: [3]float64{1e-5, 0, 0},
			Sheet: &SheetConfig{NumFibers: 4, NodesPerFiber: 4, Width: 2, Height: 2,
				Origin: [3]float64{3, 3, 3}, Ks: 0.05, Kb: 0.001},
			Solver: e.kind, Threads: e.threads, CubeSize: 4,
			Watchdog: wd,
		}
		if ref {
			cfg.Solver, cfg.Threads = Sequential, 1
		}
		if c.log {
			cfg.LogWriter = &log
		}
		if c.rec {
			sims++
			cfg.FlightRec = &flightrec.Config{DigestEvery: c.digestEvery, SnapshotEvery: c.snapshotEvery,
				Dir: filepath.Join(dir, fmt.Sprint(sims))}
		}
		return cfg
	}
	note := func(format string, a ...any) { out.transcript = append(out.transcript, fmt.Sprintf(format, a...)) }
	ring := func(what string, recs []flightrec.Record) {
		for _, r := range recs {
			if r.HasDigest {
				note("%s: step %d mass %x maxVel %x nonFinite %d tiles %s", what, r.Step,
					math.Float64bits(r.Mass), math.Float64bits(r.MaxVel), r.NonFinite, hashTiles(r.Digests))
			}
		}
	}
	// After every reader, the log and the ring must hold every sampled
	// step up to StepCount: the reader completed the pending sample.
	sampled := func(s *Simulation) {
		note("logged %d lines", bytes.Count(log.Bytes(), []byte("\n")))
		if c.rec {
			rec := s.FlightRecorder()
			note("snapshot of step %d", rec.SnapshotStep())
			ring("ring", rec.Records())
		}
	}
	sim, err := New(config(e))
	if err != nil {
		t.Fatal(err)
	}
	cur := 0
	for i, op := range c.ops {
		switch op.kind {
		case opStep:
			sim.Step()
			note("%d: step to %d", i, sim.StepCount())
		case opRun:
			sim.Run(op.arg)
			note("%d: run %d to %d", i, op.arg, sim.StepCount())
		case opCheckpoint:
			var b bytes.Buffer
			if err := sim.Checkpoint(&b); err != nil {
				t.Fatal(err)
			}
			note("%d: checkpoint %s", i, hashBytes(b.Bytes()))
			sampled(sim)
		case opRestore:
			var b bytes.Buffer
			if err := sim.Checkpoint(&b); err != nil {
				t.Fatal(err)
			}
			if err := sim.Close(); err != nil {
				t.Fatal(err)
			}
			if c.rec {
				ring("closed ring", sim.FlightRecorder().Records())
			}
			cur = (cur + op.arg) % len(protoEngines)
			if sim, err = Restore(&b, config(protoEngines[cur])); err != nil {
				t.Fatal(err)
			}
			note("%d: restored at %d", i, sim.StepCount())
			out.bundled = false
		case opSnapshot:
			snap := sim.FluidSnapshot()
			h := sha256.New()
			for _, n := range snap.Nodes {
				binary.Write(h, binary.LittleEndian, n.DF)
				binary.Write(h, binary.LittleEndian, n.Vel)
				binary.Write(h, binary.LittleEndian, n.Rho)
			}
			note("%d: snapshot %s", i, hex.EncodeToString(h.Sum(nil)))
			sampled(sim)
		case opVTK:
			var b bytes.Buffer
			if err := sim.WriteFluidVTK(&b); err != nil {
				t.Fatal(err)
			}
			note("%d: vtk %s", i, hashBytes(b.Bytes()))
			sampled(sim)
		case opSlice:
			var b bytes.Buffer
			if err := sim.WriteFluidSliceCSV(&b, 3); err != nil {
				t.Fatal(err)
			}
			note("%d: slice %s", i, hashBytes(b.Bytes()))
			sampled(sim)
		case opPostMortem:
			note("%d: post-mortem %s", i, protoBundle(sim, true))
			out.bundled = true
			sampled(sim)
		case opHealth:
			note("%d: health %s", i, protoHealth(sim))
		case opPoints:
			out.masses = append(out.masses, sim.TotalMass())
			v := sim.FluidVelocity(1, 2, 3)
			note("%d: velocity %x %x %x", i, math.Float64bits(v[0]), math.Float64bits(v[1]), math.Float64bits(v[2]))
		case opRing:
			note("%d: recorder %v", i, sim.FlightRecorder() != nil)
			sampled(sim)
		case opPoison:
			plantNaN(sim)
			out.poisonedAt = sim.StepCount()
			sim.Run(5)
			out.stoppedAt = sim.StepCount()
			out.flagged = fmt.Sprintf("health %s, post-mortem %s", protoHealth(sim), protoBundle(sim, false))
			note("%d: poisoned at %d, %s", i, out.poisonedAt, out.flagged)
			sampled(sim)
		}
	}
	if err := sim.Close(); err != nil {
		t.Fatal(err)
	}
	note("closed: health %s", protoHealth(sim))
	if c.rec {
		ring("closed ring", sim.FlightRecorder().Records())
	}
	for sc := bufio.NewScanner(&log); sc.Scan(); {
		var rec telemetry.StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		u, _ := json.Marshal(rec.Unhealthy)
		out.log = append(out.log, fmt.Sprintf("step %d mass %x maxVel %x unhealthy %s",
			rec.Step, math.Float64bits(rec.Mass), math.Float64bits(rec.MaxVel), u))
	}
	return out
}

// protoHealth names the latched violation's step and cube, or "ok".
func protoHealth(s *Simulation) string {
	var he *telemetry.HealthError
	if errors.As(s.Health(), &he) {
		return fmt.Sprintf("step %d cube %d", he.Step, he.Cube)
	}
	return "ok"
}

// protoBundle writes the post-mortem bundle (the first one a recorder
// writes stays) and names what in it is the run's and not the engine's
// or the clock's: the manifest's reason, steps and verdict, the
// localization and the checkpoint. A watchdog's bundle is written while
// the step after the flagged one runs on the engines that sample in the
// next sweep, so its last step is the engine's; withLast leaves it out.
func protoBundle(s *Simulation, withLast bool) string {
	path, err := s.WritePostMortem("manual")
	if err != nil {
		return "error: " + err.Error()
	}
	b, err := flightrec.ReadBundle(path)
	if err != nil {
		return "unreadable: " + err.Error()
	}
	m := b.Manifest
	health, _ := json.Marshal(m.Health)
	loc, _ := json.Marshal(b.Localization)
	if !withLast {
		m.LastStep = 0
	}
	return fmt.Sprintf("%s last %d snapshot %d tiles %d %v health %s localization %s checkpoint %s",
		m.Reason, m.LastStep, m.SnapshotStep, m.TileSize, m.TileGrid, health, loc, hashBytes(b.Checkpoint))
}

func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

func hashTiles(ts []grid.TileDigest) string {
	h := sha256.New()
	for _, t := range ts {
		fmt.Fprintf(h, "%+v;", t)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestSampleProtocolSequences drives seeded operation sequences on omp
// and cube at one and two threads — a Restore moves the run to another
// engine or width — and on Sequential as the reference. The transcripts
// (reader bytes, FluidVelocity bits, Health verdicts, post-mortem
// bundles, the ring's digests and how many log lines each reader found),
// TotalMass to a relative 1e-12, and the step log's lines (step, mass,
// maxVel, unhealthy) must match one for one, and no step may be logged
// twice. After a NaN planted in the state step s left, Run stops at
// s + 1 on Sequential and s + 2 on the engines that sample in the next
// sweep (s + 1 there too when s + 1 is a snapshot step, whose sample is
// completed at once), the watchdog names step s + 1, and so does the
// bundle's localization, whatever the ring's cadence.
func TestSampleProtocolSequences(t *testing.T) {
	const seeds = 160
	for seed := int64(1); seed <= seeds; seed++ {
		c := newProtoCase(seed)
		want := protoDrive(t, c, protoEngine{}, true)
		checkProtoRun(t, fmt.Sprintf("seed %d sequential", seed), c, want, want, true)
		for _, e := range protoEngines {
			name := fmt.Sprintf("seed %d %v/%d", seed, e.kind, e.threads)
			checkProtoRun(t, name, c, protoDrive(t, c, e, false), want, false)
		}
		if t.Failed() {
			t.Logf("seed %d: watchdog %v, log %v, recorder %v (DigestEvery %d, SnapshotEvery %d), ops %v",
				seed, c.watchdog, c.log, c.rec, c.digestEvery, c.snapshotEvery, c.ops)
			return
		}
	}
}

// checkProtoRun holds got, a run on Sequential if seq, to the reference
// want.
func checkProtoRun(t *testing.T, name string, c protoCase, got, want protoResult, seq bool) {
	t.Helper()
	for i := 0; i < max(len(got.transcript), len(want.transcript)); i++ {
		var g, w string
		if i < len(got.transcript) {
			g = got.transcript[i]
		}
		if i < len(want.transcript) {
			w = want.transcript[i]
		}
		if g != w {
			t.Errorf("%s: transcript line %d:\n got %s\nwant %s", name, i, g, w)
			break
		}
	}
	for i := range min(len(got.masses), len(want.masses)) {
		if d := math.Abs(got.masses[i] - want.masses[i]); d > 1e-12*math.Abs(want.masses[i]) {
			t.Errorf("%s: TotalMass reading %d is %v, want %v", name, i, got.masses[i], want.masses[i])
		}
	}
	for i := 0; i < max(len(got.log), len(want.log)); i++ {
		if i >= len(got.log) || i >= len(want.log) || got.log[i] != want.log[i] {
			t.Errorf("%s: step log line %d differs (%d lines, want %d)", name, i, len(got.log), len(want.log))
			break
		}
	}
	last := 0
	for _, line := range got.log {
		var step int
		fmt.Sscanf(line, "step %d", &step)
		if step <= last {
			t.Errorf("%s: step %d logged after step %d", name, step, last)
		}
		last = step
	}
	if c.ops[len(c.ops)-1].kind == opPoison {
		s, lag := got.poisonedAt, 2
		if seq || c.rec && (s+1)%c.snapshotEvery == 0 {
			lag = 1
		}
		if got.stoppedAt != s+lag {
			t.Errorf("%s: NaN planted after step %d, Run stopped at %d, want %d", name, s, got.stoppedAt, s+lag)
		}
		if !strings.Contains(got.flagged, fmt.Sprintf("health step %d ", s+1)) {
			t.Errorf("%s: NaN planted after step %d: %s; want the watchdog to name step %d", name, s, got.flagged, s+1)
		}
		if c.rec && !got.bundled && !strings.Contains(got.flagged, fmt.Sprintf(`"found":true,"step":%d,`, s+1)) {
			t.Errorf("%s: NaN planted after step %d: the bundle's localization does not name step %d: %s", name, s, s+1, got.flagged)
		}
	}
}
