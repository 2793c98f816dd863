package output

import (
	"bytes"
	"strings"
	"testing"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/par"
)

// serial is a width-1 ordered stream: the fluid writers' code, inline.
func serial() *par.Ordered { return par.NewOrdered(par.NewTeam(1)) }

func sheet() *fiber.Sheet {
	return fiber.NewSheet(fiber.Params{NumFibers: 3, NodesPerFiber: 4, Width: 2, Height: 3,
		Origin: fiber.Vec3{1, 2, 3}, Ks: 1, Kb: 1})
}

func TestWriteSheetCSV(t *testing.T) {
	var b bytes.Buffer
	if err := WriteSheetCSV(&b, sheet()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+12 {
		t.Fatalf("%d lines, want 13", len(lines))
	}
	if lines[0] != "fiber,node,x,y,z,vx,vy,vz" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0,1,2,3,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestWriteFluidSliceCSV(t *testing.T) {
	g := grid.New(4, 3, 2)
	g.At(2, 1, 0).Vel = [3]float64{0.5, 0, 0}
	var b bytes.Buffer
	if err := WriteFluidSliceCSV(&b, g, 2, serial()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "1,0,0.5,0,0,1") {
		t.Fatalf("slice missing velocity row:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+3*2 {
		t.Fatalf("%d lines, want 7", len(lines))
	}
}

func TestWriteFluidSliceCSVBadPlane(t *testing.T) {
	g := grid.New(4, 3, 2)
	if err := WriteFluidSliceCSV(&bytes.Buffer{}, g, 4, serial()); err == nil {
		t.Fatal("out-of-range plane accepted")
	}
	if err := WriteFluidSliceCSV(&bytes.Buffer{}, g, -1, serial()); err == nil {
		t.Fatal("negative plane accepted")
	}
}

func TestWriteSheetVTKStructure(t *testing.T) {
	var b bytes.Buffer
	if err := WriteSheetVTK(&b, sheet()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"DATASET POLYDATA",
		"POINTS 12 double",
		"POLYGONS 6 30", // (3−1)×(4−1) quads, 5 ints each
		"POINT_DATA 12",
		"VECTORS velocity double",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VTK output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSheetVTKSingleFiberNoPolygons(t *testing.T) {
	s := fiber.NewSheet(fiber.Params{NumFibers: 1, NodesPerFiber: 5, Width: 0, Height: 4, Ks: 1, Kb: 1})
	var b bytes.Buffer
	if err := WriteSheetVTK(&b, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "POLYGONS") {
		t.Fatal("single fiber must not emit polygons")
	}
}

func TestWriteFluidVTKStructure(t *testing.T) {
	g := grid.New(2, 2, 2)
	var b bytes.Buffer
	if err := WriteFluidVTK(&b, g, serial()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"DATASET STRUCTURED_POINTS",
		"DIMENSIONS 2 2 2",
		"POINT_DATA 8",
		"VECTORS velocity double",
		"SCALARS rho double 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fluid VTK missing %q", want)
		}
	}
	// 8 velocity rows + 8 rho rows of data.
	if strings.Count(out, "\n0 0 0\n") == 0 && !strings.Contains(out, "0 0 0") {
		t.Fatal("velocity data missing")
	}
}
