package lbmib

import (
	"testing"
	"time"

	"lbmib/internal/grid"
)

// BenchmarkObservedStep times one step of sheet_cube's problem — 64×64×32
// nodes, a no-slip z, one 52×52 sheet, two threads, cubes of 8 — on the
// cube and omp engines, three ways: "plain" (Step alone); "observed", the
// step as runSteps drives it when a watchdog or step log samples every
// step — the collide sweep digests the state it overwrites (observe),
// at the facade's tile size; and "explicit", Step then the between-steps
// digest (Digest: canonicalize, then refresh and fold), the path every
// observed step took before the sweep sampled. Each case reports ns per
// node for the whole run and for each parity of the step apart: "even"
// steps are the 1st, 3rd, … of the timed run, "odd" the 2nd, 4th, … . An
// in-place engine alternates the phase of its array step by step, so a
// cost that depends on the phase shows as a gap between the two; the
// explicit digest leaves the array natural, so its steps all start from
// the natural phase.
//
//	go test -run '^$' -bench ObservedStep -benchtime 64x .
func BenchmarkObservedStep(b *testing.B) {
	for _, e := range []struct {
		name string
		kind SolverKind
		k    int // the facade's digest tile: the cube size, or 4
	}{{"cube", CubeBased, 8}, {"omp", OpenMP, 4}} {
		for _, mode := range []string{"plain", "observed", "explicit"} {
			b.Run(e.name+"/"+mode, func(b *testing.B) {
				const nx, ny, nz, n = 64, 64, 32, 52
				w := 0.4 * n
				s, err := New(Config{
					NX: nx, NY: ny, NZ: nz, Tau: 0.7,
					BodyForce: [3]float64{2e-5, 0, 0},
					BoundaryZ: NoSlip,
					Solver:    e.kind, Threads: 2, CubeSize: 8,
					Sheets: []*SheetConfig{{
						NumFibers: n, NodesPerFiber: n, Width: w, Height: w,
						Origin: [3]float64{16.5, ny/2 - w/2 + 0.5, nz/2 - w/2 + 0.5},
						Ks:     0.05, Kb: 0.001,
					}},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				d, err := grid.NewDigestGrid(nx, ny, nz, e.k)
				if err != nil {
					b.Fatal(err)
				}
				var parity [2]time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					switch mode {
					case "observed":
						if err := s.eng.observe(d); err != nil {
							b.Fatal(err)
						}
						s.eng.Step()
					case "explicit":
						s.eng.Step()
						if err := s.eng.Digest(d); err != nil {
							b.Fatal(err)
						}
					default:
						s.eng.Step()
					}
					parity[i&1] += time.Since(t0)
				}
				b.StopTimer()
				perNode := func(t time.Duration, steps int) float64 {
					return float64(t.Nanoseconds()) / float64(max(steps, 1)) / (nx * ny * nz)
				}
				b.ReportMetric(perNode(parity[0]+parity[1], b.N), "ns/node")
				b.ReportMetric(perNode(parity[0], (b.N+1)/2), "even-ns/node")
				b.ReportMetric(perNode(parity[1], b.N/2), "odd-ns/node")
			})
		}
	}
}
