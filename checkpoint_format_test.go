// Tests for the block checkpoint format: it round-trips byte for byte on
// every engine, restores across engines onto the writer's trajectory,
// still reads version-1 gob checkpoints, and rejects a mismatched stream
// before building anything.
package lbmib

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"lbmib/internal/grid"
)

// formatConfig is a small problem every engine accepts at 1 and 2
// threads: an 8³ periodic box, cube size 4, one 4×4 sheet with fastened
// center nodes.
func formatConfig(e sampledEngine, threads int) Config {
	return Config{
		NX: 8, NY: 8, NZ: 8, Tau: 0.7,
		BodyForce: [3]float64{2e-4, 0, 0},
		Sheets: []*SheetConfig{{
			NumFibers: 4, NodesPerFiber: 4, Width: 3, Height: 3,
			Origin: [3]float64{3.5, 2.3, 2.6}, Ks: 0.05, Kb: 0.001, FixedRadius: 0.8,
		}},
		Solver: e.kind, Threads: threads, CubeSize: 4, Float32: e.float32,
	}
}

// bitwiseGroup names the trajectory engine e follows from a given state
// at a thread count, with a sheet: engines in one group step bit for bit
// alike. One thread, sequential and taskflow replay the sequential
// reference (crosscheck.Deterministic); the float64 fused sweep equals
// omp at any thread count; float32 storage rounds differently from all.
func bitwiseGroup(e sampledEngine, threads int) string {
	switch {
	case e.float32:
		return "f32"
	case threads == 1 || e.kind == Sequential || e.kind == TaskScheduled:
		return "sequential"
	case e.kind == Fused:
		return "omp"
	default:
		return e.name
	}
}

func checkpointBytes(t *testing.T, s *Simulation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Restoring a checkpoint on the engine that wrote it and checkpointing
// again reproduces the stream byte for byte, on every engine mode at both
// buffer parities' worth of steps.
func TestCheckpointRewriteIsByteIdentical(t *testing.T) {
	for _, e := range sampledEngines {
		for _, threads := range []int{1, 2} {
			cfg := formatConfig(e, threads)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(5) // odd: the swap engines' layouts are left swapped
			first := checkpointBytes(t, s)
			s.Close()
			r, err := Restore(bytes.NewReader(first), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again := checkpointBytes(t, r); !bytes.Equal(first, again) {
				t.Errorf("%s/%dt: checkpoint of the restored run differs from the one it restored", e.name, threads)
			}
			r.Close()
		}
	}
}

// A checkpoint written on any engine and restored on any other continues
// the writer's trajectory: one and two steps after Restore are bit for bit
// the writer's next two steps whenever both engines follow the same
// trajectory (bitwiseGroup).
func TestCheckpointCrossEngineMatrix(t *testing.T) {
	for _, threads := range []int{1, 2} {
		for _, w := range sampledEngines {
			s, err := New(formatConfig(w, threads))
			if err != nil {
				t.Fatal(err)
			}
			s.Run(5)
			ckpt := checkpointBytes(t, s)
			var want [2]string
			for i := range want {
				s.Step()
				want[i] = stateHash(t, s)
			}
			s.Close()
			for _, r := range sampledEngines {
				if bitwiseGroup(r, threads) != bitwiseGroup(w, threads) {
					continue
				}
				sim, err := Restore(bytes.NewReader(ckpt), formatConfig(r, threads))
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					sim.Step()
					if got := stateHash(t, sim); got != want[i] {
						t.Errorf("%dt: %s → %s: restore + %d steps differs from continuing", threads, w.name, r.name, i+1)
					}
				}
				if sim.StepCount() != 7 {
					t.Errorf("%dt: %s → %s: StepCount %d, want 7", threads, w.name, r.name, sim.StepCount())
				}
				sim.Close()
			}
		}
	}
}

// testdata/checkpoint-v1.gob is a version-1 gob checkpoint written before
// the block format existed: formatConfig's problem on the cube engine
// (k = 4, 2 threads) after 7 steps. Restored on every engine mode and run
// 3 more steps it must land on the state hashes (stateHash) that the
// version-1 code recorded for the same restore.
func TestCheckpointV1Fixture(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint-v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	const seqHash = "9d4f6f6cceeddf2f9f04a7a92c8e93665e8058d1ddb260c796cd801b6cc84c75"
	want := map[string][2]string{ // engine → hash at 1 and 2 threads
		"sequential": {seqHash, seqHash},
		"omp":        {seqHash, "f5d75c5392093889836c2c4a4ee303e0f7e966a9e22870b8a3178d727295b294"},
		"cube":       {seqHash, "31eb3a74b969e5b786b8ef9f03526efdfc8f7cddaf166c724873bab686eb1538"},
		"taskflow":   {seqHash, seqHash},
		"fused":      {seqHash, "f5d75c5392093889836c2c4a4ee303e0f7e966a9e22870b8a3178d727295b294"},
		"fused-f32": {"a09ab5d7b95f7757ffe1fa52bba055bc9f0719b87eb221a3d95f1b49bf445fb6",
			"97aac3c0d98080da90085f76d6698bd0ec2c34df850cc408688cdf2e352739e0"},
	}
	for _, e := range sampledEngines {
		for i, threads := range []int{1, 2} {
			s, err := Restore(bytes.NewReader(data), formatConfig(e, threads))
			if err != nil {
				t.Fatalf("%s/%dt: %v", e.name, threads, err)
			}
			if s.StepCount() != 7 {
				t.Errorf("%s/%dt: restored StepCount %d, want 7", e.name, threads, s.StepCount())
			}
			s.Run(3)
			if got := stateHash(t, s); got != want[e.name][i] {
				t.Errorf("%s/%dt: state after v1 restore + 3 steps is %s, want %s", e.name, threads, got, want[e.name][i])
			}
			s.Close()
		}
	}
}

// A stream whose grid does not match the configuration is rejected from
// its header: no worker goroutine starts and nothing near a grid's worth
// of memory is allocated.
func TestRestoreRejectsBeforeBuilding(t *testing.T) {
	small := formatConfig(sampledEngines[2], 2)
	s, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1)
	ckpt := checkpointBytes(t, s)
	s.Close()

	big := small
	big.NX, big.NY, big.NZ = 32, 32, 32
	gridBytes := uint64(big.NX*big.NY*big.NZ) * uint64(unsafe.Sizeof(grid.Node{}))
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := Restore(bytes.NewReader(ckpt), big)
	runtime.ReadMemStats(&after)
	if err == nil {
		sim.Close()
		t.Fatal("mismatched grid accepted")
	}
	if !strings.Contains(err.Error(), "grid") {
		t.Fatalf("error %q does not name the grid", err)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the rejected Restore, %d before", n, goroutines)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= gridBytes {
		t.Errorf("rejected Restore allocated %d bytes, a %d³ grid is %d", alloc, big.NX, gridBytes)
	}
}
