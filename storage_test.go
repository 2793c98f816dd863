package lbmib

import (
	"runtime"
	"testing"
)

// TestStorageBytesPerNode pins what each engine's fluid storage costs: the
// heap New retains per node on a 32³ fluid-only problem. The sequential
// engine keeps the paper's two distribution arrays and the 56 B record
// (2·152 + 56); the in-place engines hold one array (152 + 56).
// Everything else New builds is a few kilobytes, inside the 8 B per node
// of slack.
func TestStorageBytesPerNode(t *testing.T) {
	want := map[string]float64{
		"sequential": 360, "omp": 208, "cube": 208, "fused": 208,
	}
	const n = 32
	for _, e := range sampledEngines {
		for _, threads := range []int{1, 2} {
			cfg := Config{NX: n, NY: n, NZ: n, Tau: 0.7, Solver: e.kind, Threads: threads,
				CubeSize: 8}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC() // a second cycle empties the sync.Pool victim caches
			runtime.ReadMemStats(&before)
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (n * n * n)
			runtime.KeepAlive(sim)
			sim.Close()
			if w := want[e.name]; perNode < w || perNode > w+8 {
				t.Errorf("%s/%dt: New retains %.1f B per node, want %.0f (+8)", e.name, threads, perNode, w)
			}
		}
	}
}
