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
		Solver: e.kind, Threads: threads, CubeSize: 4,
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
// again reproduces the stream byte for byte, on every engine mode, from
// the in-place engines' swapped phase.
func TestCheckpointRewriteIsByteIdentical(t *testing.T) {
	for _, e := range sampledEngines {
		for _, threads := range []int{1, 2} {
			cfg := formatConfig(e, threads)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(5) // odd: the in-place engines' arrays are left swapped
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
// the writer's next two steps: every engine follows the sequential
// reference's trajectory. The writer checkpoints after 5 steps, where
// the in-place engines' arrays are swapped and Checkpoint canonicalizes
// them, and after 6, where they are natural.
func TestCheckpointCrossEngineMatrix(t *testing.T) {
	for _, threads := range []int{1, 2} {
		for _, w := range sampledEngines {
			for _, at := range []int{5, 6} {
				s, err := New(formatConfig(w, threads))
				if err != nil {
					t.Fatal(err)
				}
				s.Run(at)
				ckpt := checkpointBytes(t, s)
				var want [2]string
				for i := range want {
					s.Step()
					want[i] = stateHash(t, s)
				}
				s.Close()
				for _, r := range sampledEngines {
					sim, err := Restore(bytes.NewReader(ckpt), formatConfig(r, threads))
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						sim.Step()
						if got := stateHash(t, sim); got != want[i] {
							t.Errorf("%dt: %s@%d → %s: restore + %d steps differs from continuing", threads, w.name, at, r.name, i+1)
						}
					}
					if sim.StepCount() != at+2 {
						t.Errorf("%dt: %s@%d → %s: StepCount %d, want %d", threads, w.name, at, r.name, sim.StepCount(), at+2)
					}
					sim.Close()
				}
			}
		}
	}
}

// testdata/checkpoint-v1.gob is a version-1 gob checkpoint written before
// the block format existed: formatConfig's problem on the cube engine
// (k = 4, 2 threads) after 7 steps. Restored on every engine mode and run
// 3 more steps it must land, at every thread count, on the state hashes
// (stateHash) that the version-1 code recorded for the same restore on
// one thread.
func TestCheckpointV1Fixture(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint-v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	// Every engine, at 1 and 2 threads alike.
	const want = "9d4f6f6cceeddf2f9f04a7a92c8e93665e8058d1ddb260c796cd801b6cc84c75"
	for _, e := range sampledEngines {
		for _, threads := range []int{1, 2} {
			s, err := Restore(bytes.NewReader(data), formatConfig(e, threads))
			if err != nil {
				t.Fatalf("%s/%dt: %v", e.name, threads, err)
			}
			if s.StepCount() != 7 {
				t.Errorf("%s/%dt: restored StepCount %d, want 7", e.name, threads, s.StepCount())
			}
			s.Run(3)
			if got := stateHash(t, s); got != want {
				t.Errorf("%s/%dt: state after v1 restore + 3 steps is %s, want %s", e.name, threads, got, want)
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
