package crosscheck

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lbmib"
	"lbmib/internal/fiber"
	"lbmib/internal/ibm"
)

// numSeeds is the size of the seeded sweep: at least 25 cases per the
// harness's acceptance bar, trimmed under -short.
const numSeeds = 30

// TestSeededCases is the table-driven face of the harness: one subtest
// per seed, each executing the generated configuration on every
// applicable engine and applying all oracles. A failing seed N replays
// with:
//
//	go test ./internal/crosscheck -run 'TestSeededCases/seed_00N' -v
//	go run ./cmd/lbmib-crosscheck -seed N
func TestSeededCases(t *testing.T) {
	n := numSeeds
	if testing.Short() {
		n = 10
	}
	r := NewRunner()
	for seed := int64(0); seed < int64(n); seed++ {
		seed := seed
		t.Run(caseName(seed), func(t *testing.T) {
			t.Parallel()
			c := Gen(seed)
			res := r.Run(c)
			if !res.OK {
				cfg, _ := json.Marshal(c.Config)
				t.Errorf("seed %d diverged:\n%sreplay: go run ./cmd/lbmib-crosscheck -seed %d\nconfig: %s",
					seed, res.FailureSummary(), seed, cfg)
			}
		})
	}
}

func caseName(seed int64) string {
	name := []byte{'s', 'e', 'e', 'd', '_', '0', '0', '0'}
	for i := 7; i >= 5 && seed > 0; i-- {
		name[i] = byte('0' + seed%10)
		seed /= 10
	}
	return string(name)
}

// TestGenDenseCases pins what every fifth seed promises: at least four
// sheets, one worker / two / more than any ordinary case in turn, an
// x-plane that every stencil of every sheet touches and — on each cube
// size the generator draws — a cube that every sheet spreads into, so
// whichever way an engine splits the fibers between two workers, both
// accumulate into the same blocks.
func TestGenDenseCases(t *testing.T) {
	threads := map[int]bool{}
	for seed := int64(4); seed < 60; seed += 5 {
		c := Gen(seed)
		cfg := c.Config
		threads[cfg.Threads] = true
		if len(cfg.Sheets) < 4 {
			t.Fatalf("seed %d: %d sheets, want a dense case of at least 4", seed, len(cfg.Sheets))
		}
		k := cfg.CubeSize
		planes, cubes := map[int]int{}, map[[3]int]int{}
		stencils := 0
		for _, sc := range cfg.Sheets {
			sh := fiber.NewSheet(fiber.Params{NumFibers: sc.NumFibers, NodesPerFiber: sc.NodesPerFiber,
				Width: sc.Width, Height: sc.Height, Origin: sc.Origin})
			sheetCubes := map[[3]int]bool{}
			for _, x := range sh.X {
				var st ibm.Stencil
				st.Compute(x)
				stencils++
				if st.Base[0] < 0 || st.Base[1] < 0 || st.Base[2] < 0 ||
					st.Base[0]+3 >= cfg.NX || st.Base[1]+3 >= cfg.NY || st.Base[2]+3 >= cfg.NZ {
					t.Fatalf("seed %d: stencil at %v leaves the %dx%dx%d box", seed, x, cfg.NX, cfg.NY, cfg.NZ)
				}
				for i := 0; i < ibm.SupportWidth; i++ {
					planes[st.Base[0]+i]++
					for j := 0; j < ibm.SupportWidth; j++ {
						for l := 0; l < ibm.SupportWidth; l++ {
							sheetCubes[[3]int{(st.Base[0] + i) / k, (st.Base[1] + j) / k, (st.Base[2] + l) / k}] = true
						}
					}
				}
			}
			for cb := range sheetCubes {
				cubes[cb]++
			}
		}
		if !someCount(planes, stencils) {
			t.Errorf("seed %d: no x-plane is touched by all %d stencils", seed, stencils)
		}
		if !someCount(cubes, len(cfg.Sheets)) {
			t.Errorf("seed %d: no cube (k=%d) is touched by all %d sheets", seed, k, len(cfg.Sheets))
		}
	}
	if !threads[1] || !threads[2] || !threads[9] {
		t.Errorf("dense cases ran at threads %v, want 1, 2 and 9", threads)
	}
}

// someCount reports whether some key of m was counted exactly want times.
func someCount[K comparable](m map[K]int, want int) bool {
	for _, n := range m {
		if n == want {
			return true
		}
	}
	return false
}

// TestEnginesPinned fixes the engine set: one mode per facade engine,
// the cube engine only on shapes it accepts, and the same set with or
// without an immersed structure.
func TestEnginesPinned(t *testing.T) {
	slab := []Engine{EngineSequential, EngineOMP}
	cubes := append(append([]Engine(nil), slab...), EngineCube)
	sheet := []*lbmib.SheetConfig{{NumFibers: 4, NodesPerFiber: 4, Width: 3, Height: 3}}
	for _, tc := range []struct {
		name       string
		nx, ny, nz int
		k          int
		sheets     []*lbmib.SheetConfig
		want       []Engine
	}{
		{"divisible fluid-only", 16, 16, 16, 4, nil, cubes},
		{"divisible with sheet", 16, 16, 16, 4, sheet, cubes},
		{"indivisible fluid-only", 15, 16, 16, 4, nil, slab},
		{"indivisible with sheet", 16, 16, 18, 4, sheet, slab},
		{"no cube size", 16, 16, 16, 0, nil, slab},
	} {
		c := Case{Config: lbmib.Config{NX: tc.nx, NY: tc.ny, NZ: tc.nz, CubeSize: tc.k, Sheets: tc.sheets}}
		if got := Engines(c); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Engines = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestGenDeterministic pins the property every replay instruction relies
// on: the same seed always generates the identical case.
func TestGenDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Gen(seed), Gen(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different cases", seed)
		}
	}
}

// TestGenCoverage asserts the generator actually reaches the regions the
// harness claims to exercise: fluid-only and multi-sheet structures,
// non-cube-divisible grids, moving lids, no-slip walls, and the
// viscosity-specified τ path.
func TestGenCoverage(t *testing.T) {
	var zeroSheet, multiSheet, indivisible, lid, noslip, viscosity, multiThread int
	const n = 200
	for seed := int64(0); seed < n; seed++ {
		c := Gen(seed)
		switch len(c.Config.Sheets) {
		case 0:
			zeroSheet++
		case 2:
			multiSheet++
		}
		if !CubeDivisible(c) {
			indivisible++
		}
		if c.Config.LidVelocity != [3]float64{} {
			lid++
		}
		if hasNoSlip(c) {
			noslip++
		}
		if c.Config.Viscosity > 0 {
			viscosity++
		}
		if c.Config.Threads > 1 {
			multiThread++
		}
	}
	for name, got := range map[string]int{
		"zero-sheet":   zeroSheet,
		"multi-sheet":  multiSheet,
		"indivisible":  indivisible,
		"moving-lid":   lid,
		"no-slip":      noslip,
		"viscosity-τ":  viscosity,
		"multi-thread": multiThread,
	} {
		if got == 0 {
			t.Errorf("generator never produced a %s case in %d seeds", name, n)
		}
	}
}

func hasNoSlip(c Case) bool {
	return c.Config.BoundaryX == lbmib.NoSlip ||
		c.Config.BoundaryY == lbmib.NoSlip ||
		c.Config.BoundaryZ == lbmib.NoSlip
}

// TestCheckpointDiffNamesTheField flips one byte in each part of a real
// checkpoint with two sheets and requires diffCheckpoints to name that
// part, and the float64 it changed to show in max|Δ|.
func TestCheckpointDiffNamesTheField(t *testing.T) {
	c := Case{Config: lbmib.Config{NX: 4, NY: 6, NZ: 8, Tau: 0.7, Sheets: []*lbmib.SheetConfig{
		{NumFibers: 2, NodesPerFiber: 3, Width: 1, Height: 2, Origin: [3]float64{1.5, 2, 3}, Ks: 0.05},
		{NumFibers: 3, NodesPerFiber: 2, Width: 2, Height: 1, Origin: [3]float64{1.5, 2.5, 4}, Ks: 0.05},
	}}}
	sim, err := lbmib.New(c.Config)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(2)
	want, err := checkpoint(sim)
	sim.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The stream: magic and header, 4·6·8 fluid records of 23 float64,
	// then each sheet's parameters, 5 arrays and flags.
	fluid, record := 8+28+8*2, 8*23
	s1 := fluid + 4*6*8*record + 8*(4+15*6) + 6
	floats1 := 8 * (4 + 15*6)
	if end := s1 + floats1 + 6; end != len(want) {
		t.Fatalf("the layout ends at byte %d, the checkpoint at %d", end, len(want))
	}
	node := fluid + ((1*6+2)*8+3)*record
	for _, tc := range []struct {
		off   int
		where string
		float bool
	}{
		{12, "the header", false},
		{node + 8*7 + 6, "fluid node (1, 2, 3)", true},
		{node + 8*19 + 7, "fluid node (1, 2, 3)", true},
		{node + 8*22 + 6, "fluid node (1, 2, 3)", true},
		{s1 + 8, "sheet 1, its parameters", true},
		{s1 + 32 + 24*6 + 24*4 + 5, "sheet 1 node 4, Vel", true},
		{s1 + 32 + 24*6*4 + 7, "sheet 1 node 0, Force", true},
		{s1 + floats1 + 2, "sheet 1 node 2, Fixed", false},
	} {
		got := append([]byte(nil), want...)
		got[tc.off] ^= 0x40
		maxAbs, msg := diffCheckpoints(c, want, got)
		if !strings.HasSuffix(msg, "first at "+tc.where) {
			t.Errorf("byte %d: %q, want it to name %s", tc.off, msg, tc.where)
		}
		if (maxAbs > 0) != tc.float {
			t.Errorf("byte %d (%s): max|Δ| %g", tc.off, tc.where, maxAbs)
		}
	}
	if _, msg := diffCheckpoints(c, want, want); msg != "" {
		t.Errorf("equal checkpoints: %q", msg)
	}
}
