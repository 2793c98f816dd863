package lbmib

import (
	"math"
	"testing"
)

func twoSheetCfg(kind SolverKind) Config {
	return Config{
		NX: 24, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{3e-5, 0, 0},
		Sheets: []*SheetConfig{
			{NumFibers: 6, NodesPerFiber: 6, Width: 5, Height: 5,
				Origin: [3]float64{5, 5.5, 5.5}, Ks: 0.05, Kb: 0.001},
			{NumFibers: 6, NodesPerFiber: 6, Width: 5, Height: 5,
				Origin: [3]float64{13, 5.5, 5.5}, Ks: 0.05, Kb: 0.001},
		},
		Solver:   kind,
		Threads:  3,
		CubeSize: 4,
	}
}

func TestMultiSheetEnginesAgree(t *testing.T) {
	const steps = 10
	ref, err := New(twoSheetCfg(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Run(steps)
	refC0, _ := ref.SheetCentroidAt(0)
	refC1, _ := ref.SheetCentroidAt(1)

	for _, kind := range []SolverKind{OpenMP, CubeBased} {
		s, err := New(twoSheetCfg(kind))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(steps)
		c0, _ := s.SheetCentroidAt(0)
		c1, _ := s.SheetCentroidAt(1)
		for d := 0; d < 3; d++ {
			if math.Abs(c0[d]-refC0[d]) > 1e-9 || math.Abs(c1[d]-refC1[d]) > 1e-9 {
				t.Fatalf("%v multi-sheet centroids diverge: %v/%v vs %v/%v", kind, c0, c1, refC0, refC1)
			}
		}
		s.Close()
	}
}

func TestMultiSheetAccessors(t *testing.T) {
	s, err := New(twoSheetCfg(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumSheets() != 2 {
		t.Fatalf("NumSheets = %d, want 2", s.NumSheets())
	}
	p0, err := s.SheetPositionsAt(0)
	if err != nil || len(p0) != 36 {
		t.Fatalf("sheet 0 positions: %d nodes, err %v", len(p0), err)
	}
	if _, err := s.SheetPositionsAt(2); err == nil {
		t.Fatal("out-of-range sheet index accepted")
	}
	if _, err := s.SheetCentroidAt(-1); err == nil {
		t.Fatal("negative sheet index accepted")
	}
	// The single-sheet convenience accessors address sheet 0.
	c, err := s.SheetCentroid()
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := s.SheetCentroidAt(0)
	if c != c0 {
		t.Fatal("SheetCentroid does not address sheet 0")
	}
}

// Both sheets must advect downstream, and the upstream sheet's wake must
// not freeze the downstream one.
func TestBothSheetsMove(t *testing.T) {
	s, err := New(twoSheetCfg(CubeBased))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a0, _ := s.SheetCentroidAt(0)
	b0, _ := s.SheetCentroidAt(1)
	s.Run(60)
	a1, _ := s.SheetCentroidAt(0)
	b1, _ := s.SheetCentroidAt(1)
	if !(a1[0] > a0[0]) || !(b1[0] > b0[0]) {
		t.Fatalf("sheets did not advect: %v->%v, %v->%v", a0, a1, b0, b1)
	}
}

// Config.Sheet and Config.Sheets compose.
func TestSheetAndSheetsCompose(t *testing.T) {
	cfg := twoSheetCfg(Sequential)
	cfg.Sheet = &SheetConfig{NumFibers: 4, NodesPerFiber: 4, Width: 3, Height: 3,
		Origin: [3]float64{19, 6, 6}, Ks: 0.05, Kb: 0.001}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumSheets() != 3 {
		t.Fatalf("NumSheets = %d, want 3", s.NumSheets())
	}
}

func TestBadSheetInListRejected(t *testing.T) {
	cfg := twoSheetCfg(Sequential)
	cfg.Sheets = append(cfg.Sheets, &SheetConfig{NumFibers: 0, NodesPerFiber: 3})
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid sheet in list accepted")
	}
}
