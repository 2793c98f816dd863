package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lbmib/internal/core"
)

// The experiment drivers replay multi-second cache traces; run them once
// each and check the paper's shape criteria.

func TestTable1ShapeCriteria(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sequential solver for many steps")
	}
	r, err := Table1(Options{Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Which fluid kernel leads is a property of the collision code, not
	// of the method: the paper's collision is first with 73.2 %, this
	// repo's was first with ~52 % until the unrolled node kernel made
	// streaming the larger pass (DESIGN §8). What the method fixes, and
	// what is asserted: the four full-grid fluid kernels are the top four
	// and carry most of the step, and kernel 9 — the copy the paper's
	// Table I prices — keeps a visible share.
	fluidKernels := map[core.Kernel]bool{
		core.KComputeCollision:   true,
		core.KStreamDistribution: true,
		core.KUpdateVelocity:     true,
		core.KCopyDistribution:   true,
	}
	for _, row := range r.Rows[:4] {
		if !fluidKernels[row.Kernel] {
			t.Fatalf("top four include %v, want exactly the full-grid fluid kernels 5, 6, 7, 9", row.Kernel)
		}
		if row.Kernel == core.KCopyDistribution && (row.Percent < 3 || row.Percent > 25) {
			t.Fatalf("copy share %.1f%%, want a visible 3–25%% (paper: 5.9%%)", row.Percent)
		}
	}
	if top4 := r.TopFourShare(); top4 < 80 {
		t.Fatalf("top-4 share %.1f%%, want ≥ 80%% (paper: 97%%)", top4)
	}
	// The three fiber force kernels must be the cheapest three.
	fiberKernels := map[core.Kernel]bool{
		core.KComputeBendingForce:    true,
		core.KComputeStretchingForce: true,
		core.KComputeElasticForce:    true,
	}
	for _, row := range r.Rows[len(r.Rows)-3:] {
		if !fiberKernels[row.Kernel] {
			t.Fatalf("cheapest kernels include %v, want only fiber force kernels", row.Kernel)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "compute_fluid_collision") || !strings.Contains(out, "73.2") {
		t.Fatal("render missing measured/paper columns")
	}
}

func TestTable2ShapeCriteria(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second trace replay")
	}
	r, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(r.Rows))
	}
	first := r.Rows[0]
	for _, row := range r.Rows {
		// L1 flat across cores (paper: 1.74–1.76%).
		if diff := row.L1MissPct - first.L1MissPct; diff > 1 || diff < -1 {
			t.Fatalf("L1 miss not flat: %.2f vs %.2f", row.L1MissPct, first.L1MissPct)
		}
		// L2 well above L1 (paper: >25% vs <2%).
		if row.L2MissPct < row.L1MissPct {
			t.Fatalf("L2 miss %.2f below L1 %.2f at %d cores", row.L2MissPct, row.L1MissPct, row.Cores)
		}
	}
	if r.Rows[0].ImbalancePct != 0 {
		t.Fatalf("1-core imbalance = %g, want 0", r.Rows[0].ImbalancePct)
	}
	if r.Rows[5].ImbalancePct <= r.Rows[1].ImbalancePct {
		t.Fatal("imbalance must grow from 2 to 32 cores")
	}
	if !strings.Contains(r.Render(), "Table II") {
		t.Fatal("render missing title")
	}
}

func TestFig5ShapeCriteria(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second trace replay")
	}
	r, err := Fig5(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	prevEff := 1.01
	for _, row := range r.Rows {
		if row.Speedup > float64(row.Cores)+1e-9 {
			t.Fatalf("superlinear speedup %.2f at %d cores", row.Speedup, row.Cores)
		}
		if row.Efficiency > prevEff+1e-9 {
			t.Fatalf("efficiency not monotone at %d cores", row.Cores)
		}
		prevEff = row.Efficiency
	}
	// Paper bands: good efficiency at 8 cores, heavy decay at 32.
	get := func(c int) Fig5Row {
		for _, row := range r.Rows {
			if row.Cores == c {
				return row
			}
		}
		t.Fatalf("missing %d-core row", c)
		return Fig5Row{}
	}
	if e := get(8).Efficiency; e < 0.55 || e > 0.95 {
		t.Fatalf("8-core efficiency %.2f outside the paper's regime (~0.75)", e)
	}
	if e := get(32).Efficiency; e > 0.55 {
		t.Fatalf("32-core efficiency %.2f shows no contention (paper: 0.38)", e)
	}
}

func TestFig8ShapeCriteria(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second trace replay")
	}
	r, err := Fig8(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	prevOmp, prevCube := 0.0, 0.0
	for _, row := range r.Rows {
		// Weak-scaling time must not decrease.
		if row.OMPMs < prevOmp || row.CubeMs < prevCube {
			t.Fatalf("weak scaling time decreased at %d cores", row.Cores)
		}
		prevOmp, prevCube = row.OMPMs, row.CubeMs
		// The cube solver never loses.
		if row.Ratio < 1 {
			t.Fatalf("OMP beat cube at %d cores (ratio %.2f)", row.Cores, row.Ratio)
		}
	}
	// The cube advantage grows with cores and is substantial at 64
	// (paper: up to 53%).
	if r.Rows[6].Ratio <= r.Rows[0].Ratio {
		t.Fatal("cube advantage does not grow with core count")
	}
	if r.MaxRatio() < 1.25 {
		t.Fatalf("max cube advantage %.2f, expected ≥1.25 (paper: 1.53)", r.MaxRatio())
	}
	// OMP's growth per doubling exceeds cube's at the high end.
	if r.Rows[6].OMPGrowthPct <= r.Rows[6].CubeGrowthPct {
		t.Fatal("OMP does not degrade faster than cube at 64 cores")
	}
}

func TestTables34Render(t *testing.T) {
	t3 := Table3()
	for _, want := range []string{"Opteron 6380", "Table III"} {
		if !strings.Contains(t3, want) {
			t.Fatalf("Table3 missing %q", want)
		}
	}
	t4 := Table4()
	for _, want := range []string{"Table IV", "10", "22", "1.75"} {
		if !strings.Contains(t4, want) {
			t.Fatalf("Table4 missing %q", want)
		}
	}
}

func TestAblationCubeSize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second trace replay")
	}
	r, err := AblationCubeSize(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MemPerNode <= 0 || row.Predicted64 <= 0 || row.HostStepTime <= 0 {
			t.Fatalf("empty measurements for k=%d: %+v", row.K, row)
		}
	}
	if !strings.Contains(r.Render(), "cube size") {
		t.Fatal("render broken")
	}
}

func TestAblationCopyVsSwap(t *testing.T) {
	r, err := AblationCopyVsSwap(Options{Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Paper band: the copy is noticeable (5.9%) but small.
	if r.CopySharePct <= 0 || r.CopySharePct > 30 {
		t.Fatalf("copy share %.2f%% outside plausible band", r.CopySharePct)
	}
}

func TestAblationLayoutCache(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay")
	}
	r, err := AblationLayoutCache(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	slab, cube := r.Rows[0], r.Rows[1]
	if cube.L2Pct >= slab.L2Pct {
		t.Fatalf("cube L2 miss %.2f not below slab %.2f", cube.L2Pct, slab.L2Pct)
	}
	if cube.MemPerNode >= slab.MemPerNode {
		t.Fatalf("cube DRAM traffic %.2f not below slab %.2f", cube.MemPerNode, slab.MemPerNode)
	}
}

// The Table II measurement must run a team the host can seat — barrier
// waits on an oversubscribed team measure descheduling, not imbalance —
// and must hand the scheduler width back.
func TestLoadImbalanceCapsTeamAtCores(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	r, err := LoadImbalance(Options{Steps: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("GOMAXPROCS left at %d, was %d", got, before)
	}
	if r.cores != runtime.NumCPU() || r.Threads > r.cores || r.Threads < 1 {
		t.Fatalf("cores=%d threads=%d on a %d-CPU host", r.cores, r.Threads, runtime.NumCPU())
	}
	want := []string{"omp", "cube"}
	if len(r.Rows) != len(want) {
		t.Fatalf("%d rows, want %v", len(r.Rows), want)
	}
	for i, row := range r.Rows {
		if row.Engine != want[i] || row.Threads != r.Threads {
			t.Errorf("row %d = %s on %d threads, want %s on %d", i, row.Engine, row.Threads, want[i], r.Threads)
		}
		if row.MLUPS <= 0 || row.BarrierWaitShare < 0 || row.BarrierWaitShare >= 1 {
			t.Errorf("%s: MLUPS %g, barrier-wait share %g", row.Engine, row.MLUPS, row.BarrierWaitShare)
		}
	}
	if head := fmt.Sprintf("%d cores, %d threads", r.cores, r.Threads); !strings.Contains(r.Render(), head) {
		t.Errorf("render header lacks %q:\n%s", head, r.Render())
	}
}
