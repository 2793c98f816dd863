package lbmib

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"lbmib/internal/core"
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
	// The digest's record-derived fields; the tile masses, which are
	// sums of distributions, are held against the serial digest of the
	// engine's Live layout instead (TestDigestRefreshesStaleRecords).
	{"Digest", func(t *testing.T, s *Simulation) string {
		d, err := grid.NewDigestGrid(16, 16, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.eng.Digest(d); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		fmt.Fprint(&b, math.Float64bits(d.MaxVel), d.NonFinite, d.MaxVelCell, d.BadCell, d.BadRho, d.BadVel)
		for _, td := range d.Tiles {
			fmt.Fprint(&b, math.Float64bits(td.MaxVel2), td.NonFinite)
		}
		return b.String()
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
// Sequential's force field after a step holds the step's spread force,
// which the in-place engines reset to the body force; it is dead state
// (core.InPlace.Loaded), so the reference's is reset too before reading.
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
		core.SeedForce(s.eng.live().Macros(), cfg.BodyForce)
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

// TestDigestRefreshesStaleRecords holds the per-step digest on the
// engines' teams, which canonicalizes a swapped array first and then
// refreshes each piece's stale records in the loop that digests them,
// against the serial digest (grid.DigestGrid.Fill) of the layout Live
// returns — every field, tile masses included — on staleEngines at one
// to three threads, after odd and even step counts, fluid-only
// and with a sheet, and with a NaN seeded into a record and a
// distribution between steps.
func TestDigestRefreshesStaleRecords(t *testing.T) {
	fields := func(d *grid.DigestGrid) string {
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
	for _, p := range staleProblems {
		for _, e := range staleEngines {
			for threads := 1; threads <= 3; threads++ {
				for _, n := range []int{3, 4} {
					for _, nan := range []bool{false, true} {
						cfg := p.cfg
						cfg.Solver, cfg.Threads, cfg.CubeSize = e.kind, threads, 4
						var got [2]string
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
							if i == 0 {
								err = s.eng.Digest(d)
							} else {
								err = d.Fill(s.eng.live())
							}
							if err != nil {
								t.Fatal(err)
							}
							if nan && d.NonFinite == 0 {
								t.Fatalf("%s/%s/%dt/%d steps: the seeded NaN went uncounted", p.name, e.name, threads, n)
							}
							got[i] = fields(d)
							s.Close()
						}
						if got[0] != got[1] {
							t.Errorf("%s/%s/%dt/%d steps/NaN %v: the team's digest differs from the serial digest of Live's layout", p.name, e.name, threads, n, nan)
						}
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
			core.SeedForce(seq.eng.live().Macros(), ref.BodyForce)
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
