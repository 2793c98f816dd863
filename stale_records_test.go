package lbmib

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"lbmib/internal/grid"
)

// staleConsumers are the readers of whole records that an in-place
// engine may leave stale between steps (core.Support): each must see
// Sequential's records bit for bit. A consumer reads a simulation that
// no other consumer has touched since its last step, so it is the first
// to meet the stale records.
var staleConsumers = []struct {
	name string
	read func(t *testing.T, s *Simulation) string
}{
	{"FluidVelocity", func(t *testing.T, s *Simulation) string {
		var b bytes.Buffer
		for _, p := range [][3]int{{3, 9, 14}, {8, 2, 5}, {15, 15, 0}, {0, 7, 11}, {-1, 17, 3}} {
			v := s.FluidVelocity(p[0], p[1], p[2])
			fmt.Fprintf(&b, "%x %x %x;", math.Float64bits(v[0]), math.Float64bits(v[1]), math.Float64bits(v[2]))
		}
		return b.String()
	}},
	{"FluidDensity", func(t *testing.T, s *Simulation) string {
		var b bytes.Buffer
		for _, p := range [][3]int{{3, 9, 14}, {8, 2, 5}, {15, 15, 0}, {0, 7, 11}} {
			fmt.Fprintf(&b, "%x;", math.Float64bits(s.FluidDensity(p[0], p[1], p[2])))
		}
		return b.String()
	}},
	{"MaxVelocity", func(t *testing.T, s *Simulation) string {
		return fmt.Sprintf("%x", math.Float64bits(s.MaxVelocity()))
	}},
	{"FluidSnapshot", func(t *testing.T, s *Simulation) string {
		var b bytes.Buffer
		for _, n := range s.FluidSnapshot().Nodes {
			fmt.Fprint(&b, n.DF, n.Vel, n.Rho, n.Force)
		}
		return b.String()
	}},
	{"Checkpoint", func(t *testing.T, s *Simulation) string { return string(checkpointBytes(t, s)) }},
	{"WriteFluidVTK", func(t *testing.T, s *Simulation) string {
		var b bytes.Buffer
		if err := s.WriteFluidVTK(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}},
	// Every field of the digest: its masses are sums of the records' ρ,
	// layer by layer (grid.TileDigest), so they too are Sequential's.
	{"Digest", func(t *testing.T, s *Simulation) string {
		d, err := grid.NewDigestGrid(16, 16, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.eng.Digest(d); err != nil {
			t.Fatal(err)
		}
		return digestFields(d)
	}},
}

// staleEngines are the in-place engines the stale-record tests run. The
// deprecated Fused kind builds the omp engine; its row holds the alias,
// under its old name, to every check omp meets.
var staleEngines = []struct {
	name string
	kind SolverKind
}{{"omp", OpenMP}, {"cube", CubeBased}, {"fused", Fused}}

// staleProblems are a structure-free lid-driven cavity, where every
// block's record goes stale, and a driven channel with a sheet that
// crosses x-plane and cube faces, where the blocks its stencils reach
// keep fresh records and the rest go stale.
var staleProblems = []struct {
	name string
	cfg  Config
}{
	{"fluid", Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, BoundaryZ: NoSlip, LidVelocity: [3]float64{0.03, 0.01, 0}}},
	{"sheet", Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, BodyForce: [3]float64{1e-5, 2e-6, 0}, BoundaryY: NoSlip,
		Sheet: &SheetConfig{NumFibers: 10, NodesPerFiber: 10, Width: 7, Height: 7, Origin: [3]float64{5.5, 4.3, 3.7}, Ks: 0.05, Kb: 0.001}}},
}

// TestStaleRecordConsumers runs staleEngines at one to three
// threads for odd and even step counts (both phases of the in-place
// array), fluid-only and with a sheet, and has every consumer of whole
// records read the stale state first: it must read Sequential's bits.
// Then the same again on a simulation restored from the engine's
// checkpoint and stepped on, whose records the restore loaded fresh.
func TestStaleRecordConsumers(t *testing.T) {
	reference := func(cfg Config, steps []int) *Simulation {
		cfg.Solver, cfg.Threads = Sequential, 1
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range steps {
			s.Run(n)
			ckpt := checkpointBytes(t, s)
			s.Close()
			if s, err = Restore(bytes.NewReader(ckpt), cfg); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	for _, p := range staleProblems {
		for _, steps := range [][]int{{3}, {4}, {4, 3}, {3, 2}} {
			ref := reference(p.cfg, steps)
			want := make([]string, len(staleConsumers))
			for i, c := range staleConsumers {
				want[i] = c.read(t, ref)
			}
			ref.Close()
			for _, e := range staleEngines {
				for threads := 1; threads <= 3; threads++ {
					name := fmt.Sprintf("%s/%v/%s/%dt", p.name, steps, e.name, threads)
					t.Run(name, func(t *testing.T) {
						cfg := p.cfg
						cfg.Solver, cfg.Threads, cfg.CubeSize = e.kind, threads, 4
						for i, c := range staleConsumers {
							s, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							for j, n := range steps {
								if j > 0 {
									ckpt := checkpointBytes(t, s)
									s.Close()
									if s, err = Restore(bytes.NewReader(ckpt), cfg); err != nil {
										t.Fatal(err)
									}
								}
								s.Run(n)
							}
							if got := c.read(t, s); got != want[i] {
								t.Errorf("%s differs from Sequential's", c.name)
							}
							s.Close()
						}
					})
				}
			}
		}
	}
}

// digestFields is every field of a digest, floats by their bits.
func digestFields(d *grid.DigestGrid) string {
	var b bytes.Buffer
	for _, v := range []float64{d.Mass, d.MaxVel, d.BadRho, d.BadVel[0], d.BadVel[1], d.BadVel[2]} {
		fmt.Fprintf(&b, "%x ", math.Float64bits(v))
	}
	fmt.Fprint(&b, d.NonFinite, d.MaxVelCell, d.BadCell)
	for _, td := range d.Tiles {
		fmt.Fprintf(&b, "%x %x %d;", math.Float64bits(td.Mass), math.Float64bits(td.MaxVel2), td.NonFinite)
	}
	return b.String()
}

// TestDigestRefreshesStaleRecords holds the explicit digest on the
// engines' teams, which canonicalizes a swapped array first and then
// refreshes each piece's stale records in the loop that digests them,
// against the serial digest (grid.DigestGrid.Fill) of the layout Live
// returns and against the reference walk over FluidSnapshot's copy
// (grid.Snapshot.Digest) — every field, tile masses included, all three
// sums of the same ρ in the same order — on staleEngines at one to three
// threads, after odd and even step counts, fluid-only and with a sheet,
// and with a NaN seeded into a record and a distribution between steps:
// the distribution's reaches the digest through its block's refresh if
// the block is stale, and through the next step's moments otherwise.
func TestDigestRefreshesStaleRecords(t *testing.T) {
	for _, p := range staleProblems {
		for _, e := range staleEngines {
			for threads := 1; threads <= 3; threads++ {
				for _, n := range []int{3, 4} {
					for _, nan := range []bool{false, true} {
						cfg := p.cfg
						cfg.Solver, cfg.Threads, cfg.CubeSize = e.kind, threads, 4
						var got [3]string
						for i := range got {
							s, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							s.Run(n)
							if nan {
								seedNaN(s)
								s.Run(1)
								seedNaN(s)
							}
							d, err := grid.NewDigestGrid(16, 16, 16, 4)
							if err != nil {
								t.Fatal(err)
							}
							switch i {
							case 0:
								err = s.eng.Digest(d)
							case 1:
								err = d.Fill(s.eng.live())
							default:
								err = s.FluidSnapshot().Digest(d)
							}
							if err != nil {
								t.Fatal(err)
							}
							if nan && d.NonFinite == 0 {
								t.Fatalf("%s/%s/%dt/%d steps: the seeded NaN went uncounted", p.name, e.name, threads, n)
							}
							got[i] = digestFields(d)
							s.Close()
						}
						if got[0] != got[1] || got[2] != got[1] {
							t.Errorf("%s/%s/%dt/%d steps/NaN %v: the team's digest, the serial digest of Live's layout and the snapshot's differ", p.name, e.name, threads, n, nan)
						}
					}
				}
			}
		}
	}
}

// TestSampleIsOneDigestByEveryPath: the sample of a state is the same
// bits by every path that takes it — the collide sweep of the next step
// (observe), the explicit digest between steps (Digest), and the
// reference walk over FluidSnapshot's copy (grid.Snapshot.Digest) — on
// omp and cube at one to four threads and on Sequential, fluid-only
// (every block stale) and with a sheet (the support's blocks fresh, the
// rest stale), from both phases of the in-place array (the sweep's twin
// never canonicalizes), and after a point accessor has refreshed every
// record. Every engine's sample is also Sequential's, bit for bit: a
// digest sums the records' ρ in lattice order, whatever the layout.
func TestSampleIsOneDigestByEveryPath(t *testing.T) {
	engines := []struct {
		name    string
		kind    SolverKind
		threads []int
	}{{"sequential", Sequential, []int{1}}, {"omp", OpenMP, []int{1, 2, 3, 4}}, {"cube", CubeBased, []int{1, 2, 3, 4}}}
	for _, p := range staleProblems {
		var reference []string // Sequential's samples, point by point
		for _, e := range engines {
			for _, threads := range e.threads {
				cfg := p.cfg
				cfg.Solver, cfg.Threads, cfg.CubeSize = e.kind, threads, 4
				var twins [2]*Simulation // explicit, sweep
				for i := range twins {
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					s.Run(3)
					twins[i] = s
				}
				x, y := twins[0], twins[1]
				for point := 0; point < 5; point++ {
					name := fmt.Sprintf("%s/%s/%dt/step %d", p.name, e.name, threads, 3+point)
					if point == 3 {
						x.FluidDensity(0, 0, 0)
						y.FluidDensity(0, 0, 0)
						name += " refreshed"
					}
					var d [3]*grid.DigestGrid
					for i := range d {
						var err error
						if d[i], err = grid.NewDigestGrid(16, 16, 16, 4); err != nil {
							t.Fatal(err)
						}
					}
					if err := x.eng.Digest(d[0]); err != nil {
						t.Fatal(err)
					}
					if err := x.FluidSnapshot().Digest(d[1]); err != nil {
						t.Fatal(err)
					}
					if e.kind == Sequential {
						if err := y.eng.Digest(d[2]); err != nil {
							t.Fatal(err)
						}
					} else if err := y.eng.observe(d[2]); err != nil {
						t.Fatal(err)
					}
					y.eng.Step()
					x.eng.Step()
					want := digestFields(d[0])
					if got := digestFields(d[1]); got != want {
						t.Errorf("%s: Snapshot.Digest of FluidSnapshot differs from Digest", name)
					}
					if got := digestFields(d[2]); got != want {
						t.Errorf("%s: the sweep's sample differs from Digest", name)
					}
					if e.kind == Sequential {
						reference = append(reference, want)
					} else if want != reference[point] {
						t.Errorf("%s: the sample differs from Sequential's", name)
					}
				}
			}
		}
	}
}

// seedNaN writes a NaN into one record's velocity and one distribution
// value of the engine's array as the last step left it, in its phase,
// without refreshing or canonicalizing anything.
func seedNaN(s *Simulation) {
	l := s.eng.(*inPlaceEngine).Fluid
	l.Dist()[200][5] = math.NaN()
	l.Macros()[3000].Vel[1] = math.NaN()
}

// stale counts the blocks whose records the engine's next collide would
// fold: the blocks outside its fresh set.
func stale(t *testing.T, s *Simulation) int {
	e, ok := s.eng.(*inPlaceEngine)
	if !ok {
		t.Fatalf("engine %T streams in place? no record can go stale", s.eng)
	}
	fresh, _ := e.Support.Sets(0)
	n := 0
	for _, f := range fresh {
		if !f {
			n++
		}
	}
	return n
}

// TestTotalMassLeavesRecordsStale holds TotalMass on a stale state —
// staleEngines at one to three threads, after odd and even step
// counts, fluid-only and with a sheet — to the sum over
// Live's layout, bit for bit, which is what it returned when it
// refreshed every record first; and it must refresh none: a mass sum
// reads the distributions alone. Reading the records afterwards must
// still give Sequential's bits, from the canonicalized array.
func TestTotalMassLeavesRecordsStale(t *testing.T) {
	snapshot := func(s *Simulation) string {
		var b bytes.Buffer
		for _, n := range s.FluidSnapshot().Nodes {
			fmt.Fprint(&b, n.DF, n.Vel, n.Rho, n.Force)
		}
		return b.String()
	}
	for _, p := range staleProblems {
		for _, n := range []int{3, 4} {
			ref := p.cfg
			ref.Solver, ref.Threads = Sequential, 1
			seq, err := New(ref)
			if err != nil {
				t.Fatal(err)
			}
			seq.Run(n)
			want := snapshot(seq)
			seq.Close()
			for _, e := range staleEngines {
				for threads := 1; threads <= 3; threads++ {
					cfg := p.cfg
					cfg.Solver, cfg.Threads, cfg.CubeSize = e.kind, threads, 4
					t.Run(fmt.Sprintf("%s/%s/%dt/%d", p.name, e.name, threads, n), func(t *testing.T) {
						var sims [2]*Simulation
						for i := range sims {
							s, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							defer s.Close()
							s.Run(n)
							sims[i] = s
						}
						before := stale(t, sims[0])
						if before == 0 {
							t.Fatal("no stale record to leave stale")
						}
						got := sims[0].TotalMass()
						if after := stale(t, sims[0]); after != before {
							t.Errorf("TotalMass refreshed records: %d stale before, %d after", before, after)
						}
						if live := sims[1].eng.live().TotalMass(); math.Float64bits(got) != math.Float64bits(live) {
							t.Errorf("TotalMass %#x (%.17g), the sum over Live's layout %#x (%.17g)",
								math.Float64bits(got), got, math.Float64bits(live), live)
						}
						if snapshot(sims[0]) != want {
							t.Error("FluidSnapshot after TotalMass differs from Sequential's")
						}
					})
				}
			}
		}
	}
}
