package experiments

import (
	"fmt"
	"strings"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/perfmon"
)

// PaperTable1 holds the paper's published kernel time shares (percent of
// total sequential execution time, Table I).
var PaperTable1 = map[core.Kernel]float64{
	core.KComputeCollision:       73.2,
	core.KUpdateVelocity:         12.6,
	core.KCopyDistribution:       5.9,
	core.KStreamDistribution:     5.4,
	core.KSpreadForce:            1.4,
	core.KMoveFibers:             0.7,
	core.KComputeBendingForce:    0.03,
	core.KComputeStretchingForce: 0.02,
	core.KComputeElasticForce:    0.00,
}

// Table1Result is the measured sequential kernel profile.
type Table1Result struct {
	NX, NY, NZ int
	FiberNodes int
	Steps      int           // steps run; each row is its kernel's best one
	Total      time.Duration // the rows' sum: one step with every kernel at its best
	Rows       []perfmon.Row
}

// Table1 reproduces the paper's Table I: it runs the sequential LBM-IB
// solver under the kernel profiler and ranks the nine kernels by share of
// execution time. Every step runs under its own profile and each kernel
// is timed by its best step (perfmon.BestRanked): on a shared host a
// descheduling lands in some kernel's time in a few steps, and a kernel
// keeps its rank unless it is hit in every one.
func Table1(opt Options) (Table1Result, error) {
	nx, ny, nz, steps := opt.table1Grid()
	sheet := opt.sheet52([3]int{nx, ny, nz})
	s, err := core.NewSolver(core.Config{
		NX: nx, NY: ny, NZ: nz, Tau: 0.7,
		BodyForce: [3]float64{2e-5, 0, 0},
		Sheet:     sheet,
	})
	if err != nil {
		return Table1Result{}, err
	}
	profs := make([]*perfmon.Profile, steps)
	for i := range profs {
		profs[i] = perfmon.NewProfile(perfmon.Config{})
		s.Probe = profs[i]
		s.Step()
	}
	res := Table1Result{
		NX: nx, NY: ny, NZ: nz,
		FiberNodes: sheet.NumNodes(),
		Steps:      steps,
		Rows:       perfmon.BestRanked(profs...),
	}
	for _, row := range res.Rows {
		res.Total += row.Time
	}
	return res, nil
}

// TopFourShare returns the summed share of the four most expensive
// kernels; the paper reports ≈97%.
func (r Table1Result) TopFourShare() float64 {
	s := 0.0
	for i, row := range r.Rows {
		if i == 4 {
			break
		}
		s += row.Percent
	}
	return s
}

// Render formats the result next to the paper's numbers.
func (r Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — sequential kernel profile (%d×%d×%d fluid, %d fiber nodes, best of %d steps per kernel, step total %s)\n",
		r.NX, r.NY, r.NZ, r.FiberNodes, r.Steps, fmtDuration(r.Total))
	b.WriteString(header("Kernel", fmt.Sprintf("%-36s", "Name"), "Measured%", "  Paper%"))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d  %-36s %8.2f%%  %6.2f%%\n",
			int(row.Kernel), row.Kernel.String(), row.Percent, PaperTable1[row.Kernel])
	}
	fmt.Fprintf(&b, "top-4 kernels: measured %.1f%% of total (paper: 97%%)\n", r.TopFourShare())
	return b.String()
}
