package lbmib

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"lbmib/internal/grid"
)

// teamReader is one reader between steps, its output as bytes.
type teamReader struct {
	name string
	read func(t *testing.T, s *Simulation) []byte
}

var teamReaders = []teamReader{
	{"Checkpoint", checkpointBytes},
	{"WriteFluidVTK", func(t *testing.T, s *Simulation) []byte {
		var b bytes.Buffer
		if err := s.WriteFluidVTK(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}},
	{"WriteFluidSliceCSV", func(t *testing.T, s *Simulation) []byte {
		var b bytes.Buffer
		if err := s.WriteFluidSliceCSV(&b, 9); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}},
	{"FluidSnapshot", func(_ *testing.T, s *Simulation) []byte { return snapshotRecords(s.FluidSnapshot()) }},
}

// snapshotRecords encodes a snapshot's nodes as little-endian float64: 19
// distributions, ρ, u, F.
func snapshotRecords(g *grid.Snapshot) []byte {
	var b []byte
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, v := range append(append(append(n.DF[:], n.Rho), n.Vel[:]...), n.Force[:]...) {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// teamConfig is denseConfig on a grid five cubes long, so the cube
// engine runs all of 5 threads.
func teamConfig(e sampledEngine, threads int) Config {
	cfg := denseConfig(e, threads)
	cfg.NX = 20
	return cfg
}

// Every reader between steps runs on the engine's team and writes the
// bytes it writes on one goroutine: after the same steps — 5, where the
// in-place arrays are swapped and their records stale, and 6 — and after
// a Restore of Sequential's checkpoint, each reader's output on omp and
// cube at 1, 2, 3 and 5 threads equals the same engine's at 1 thread
// and Sequential's byte for byte. Each reader runs first on its own
// simulation, so each meets the state a step leaves.
func TestReadersAtTeamWidth(t *testing.T) {
	seqCfg := teamConfig(sampledEngines[0], 1)
	run := func(cfg Config, steps int, from []byte) *Simulation {
		t.Helper()
		var s *Simulation
		var err error
		if from != nil {
			s, err = Restore(bytes.NewReader(from), cfg)
		} else if s, err = New(cfg); err == nil {
			s.Run(steps)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Config().Threads; got != cfg.Threads {
			t.Fatalf("%v: %d threads run, want %d", cfg.Solver, got, cfg.Threads)
		}
		return s
	}
	for _, steps := range []int{5, 6} {
		seq := run(seqCfg, steps, nil)
		ckpt := checkpointBytes(t, seq)
		seq.Close()
		for _, r := range teamReaders {
			seq := run(seqCfg, steps, nil)
			want := r.read(t, seq)
			seq.Close()
			for _, e := range sampledEngines[1:3] {
				for _, restored := range []bool{false, true} {
					var from []byte
					if restored {
						from = ckpt
					}
					var one []byte
					for _, threads := range []int{1, 2, 3, 5} {
						s := run(teamConfig(e, threads), steps, from)
						got := r.read(t, s)
						s.Close()
						if threads == 1 {
							one = got
						} else if !bytes.Equal(got, one) {
							t.Errorf("%s after %d steps (restored %v), %s at %d threads: differs from 1 thread", r.name, steps, restored, e.name, threads)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("%s after %d steps (restored %v), %s at %d threads: differs from Sequential's", r.name, steps, restored, e.name, threads)
						}
					}
				}
			}
		}
	}
}

// Live canonicalizes and refreshes on the team with bodies bound once:
// a step (which allocates nothing, sampledEngine) and Live together
// allocate nothing, from either phase, with stale records to refresh.
func TestLiveAllocatesNothing(t *testing.T) {
	for _, e := range sampledEngines[1:3] {
		s, err := New(denseConfig(e, 2))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(2)
		if n := testing.AllocsPerRun(10, func() { s.eng.Step(); s.eng.live() }); n != 0 {
			t.Errorf("%s: Step + Live allocate %.1f objects, want 0", e.name, n)
		}
		s.Close()
	}
}

// The length the flight recorder sizes its snapshot buffer to is the
// length of the checkpoint, with and without sheets, on every engine.
func TestCheckpointSizeIsStated(t *testing.T) {
	for _, e := range sampledEngines[:3] {
		for _, cfg := range []Config{formatConfig(e, 2), denseConfig(e, 2), {NX: 6, NY: 4, NZ: 8, Solver: e.kind, Threads: 2, CubeSize: 2}} {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(3)
			if got, want := s.checkpointSize(), len(checkpointBytes(t, s)); got != want {
				t.Errorf("%s with %d sheets: stated %d bytes, Checkpoint writes %d", e.name, s.NumSheets(), got, want)
			}
			s.Close()
		}
	}
}
