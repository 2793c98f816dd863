package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestVectorBodiesSelected fails where the CPU offers AVX2 but the probe
// does not select the vector bodies, so that a broken feature check
// cannot turn them off unnoticed. The node kernel, the stencil and the
// spread and gather all select on Vector, so this one test covers them.
// Under the race detector the Go bodies run by design, and the test
// checks that instead.
func TestVectorBodiesSelected(t *testing.T) {
	if race {
		if Vector() {
			t.Fatal("vector bodies selected under the race detector")
		}
		t.Skip("the race detector selects the Go bodies")
	}
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("no vector body on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check against: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") && slices.Contains(strings.Fields(line), "avx2") {
			listed = true
			break
		}
	}
	if listed != Vector() {
		t.Fatalf("/proc/cpuinfo lists avx2: %v; vector bodies selected: %v", listed, Vector())
	}
}
