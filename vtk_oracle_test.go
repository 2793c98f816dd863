package lbmib

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
)

// oracleFluidVTK is the fmt-based fluid VTK writer the strconv writer in
// internal/output replaced, kept as the byte-for-byte oracle.
func oracleFluidVTK(w io.Writer, g *grid.Snapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# vtk DataFile Version 3.0")
	fmt.Fprintln(bw, "LBM-IB fluid grid")
	fmt.Fprintln(bw, "ASCII")
	fmt.Fprintln(bw, "DATASET STRUCTURED_POINTS")
	fmt.Fprintf(bw, "DIMENSIONS %d %d %d\n", g.NX, g.NY, g.NZ)
	fmt.Fprintln(bw, "ORIGIN 0 0 0")
	fmt.Fprintln(bw, "SPACING 1 1 1")
	fmt.Fprintf(bw, "POINT_DATA %d\n", len(g.Nodes))
	fmt.Fprintln(bw, "VECTORS velocity double")
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				v := g.At(x, y, z).Vel
				fmt.Fprintf(bw, "%g %g %g\n", v[0], v[1], v[2])
			}
		}
	}
	fmt.Fprintln(bw, "SCALARS rho double 1")
	fmt.Fprintln(bw, "LOOKUP_TABLE default")
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				fmt.Fprintf(bw, "%g\n", g.At(x, y, z).Rho)
			}
		}
	}
	return bw.Flush()
}

// oracleFluidSliceCSV is the fmt-based slice writer, the oracle of
// WriteFluidSliceCSV.
func oracleFluidSliceCSV(w io.Writer, g *grid.Snapshot, plane int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "y,z,ux,uy,uz,rho")
	for y := 0; y < g.NY; y++ {
		for z := 0; z < g.NZ; z++ {
			n := g.At(plane, y, z)
			fmt.Fprintf(bw, "%d,%d,%g,%g,%g,%g\n", y, z, n.Vel[0], n.Vel[1], n.Vel[2], n.Rho)
		}
	}
	return bw.Flush()
}

// The fluid writers read the live layout of every engine, at both buffer
// parities, and print exactly what the fmt writers printed — NaN, ±Inf
// and −0 included.
func TestFluidWritersMatchFmtOracle(t *testing.T) {
	const plane = 3
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-300, -2.5e21}
	for _, e := range sampledEngines {
		for _, steps := range []int{2, 3} {
			s, err := New(formatConfig(e, 2))
			if err != nil {
				t.Fatal(err)
			}
			s.Run(steps)
			l := s.eng.live()
			for i, v := range special {
				n := &l.Macros()[l.Idx(plane, i, 5)]
				n.Vel[i%3], n.Rho = v, special[len(special)-1-i]
			}
			snap := s.FluidSnapshot()
			var got, want bytes.Buffer
			if err := s.WriteFluidVTK(&got); err != nil {
				t.Fatal(err)
			}
			if err := oracleFluidVTK(&want, snap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s after %d steps: fluid VTK differs from the fmt oracle", e.name, steps)
			}
			for _, v := range []string{"NaN", "+Inf", "-Inf", "\n-0\n"} {
				if !bytes.Contains(got.Bytes(), []byte(v)) {
					t.Errorf("%s after %d steps: fluid VTK lacks the planted %q", e.name, steps, v)
				}
			}
			got.Reset()
			want.Reset()
			if err := s.WriteFluidSliceCSV(&got, plane); err != nil {
				t.Fatal(err)
			}
			if err := oracleFluidSliceCSV(&want, snap, plane); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s after %d steps: slice CSV differs from the fmt oracle", e.name, steps)
			}
			s.Close()
		}
	}
}

// oracleSheetCSV is the fmt-based sheet CSV writer the strconv writer in
// internal/output replaced, kept as the byte-for-byte oracle.
func oracleSheetCSV(w io.Writer, s *fiber.Sheet) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "fiber,node,x,y,z,vx,vy,vz")
	for f := 0; f < s.NumFibers; f++ {
		for k := 0; k < s.NodesPerFiber; k++ {
			i := s.Idx(f, k)
			x, v := s.X[i], s.Vel[i]
			fmt.Fprintf(bw, "%d,%d,%g,%g,%g,%g,%g,%g\n", f, k, x[0], x[1], x[2], v[0], v[1], v[2])
		}
	}
	return bw.Flush()
}

// oracleSheetVTK is the fmt-based sheet VTK writer, the oracle of
// WriteSheetVTK.
func oracleSheetVTK(w io.Writer, s *fiber.Sheet) error {
	bw := bufio.NewWriter(w)
	n := s.NumNodes()
	fmt.Fprintln(bw, "# vtk DataFile Version 3.0")
	fmt.Fprintln(bw, "LBM-IB fiber sheet")
	fmt.Fprintln(bw, "ASCII")
	fmt.Fprintln(bw, "DATASET POLYDATA")
	fmt.Fprintf(bw, "POINTS %d double\n", n)
	for _, x := range s.X {
		fmt.Fprintf(bw, "%g %g %g\n", x[0], x[1], x[2])
	}
	nq := (s.NumFibers - 1) * (s.NodesPerFiber - 1)
	if nq > 0 {
		fmt.Fprintf(bw, "POLYGONS %d %d\n", nq, nq*5)
		for f := 0; f < s.NumFibers-1; f++ {
			for k := 0; k < s.NodesPerFiber-1; k++ {
				fmt.Fprintf(bw, "4 %d %d %d %d\n", s.Idx(f, k), s.Idx(f, k+1), s.Idx(f+1, k+1), s.Idx(f+1, k))
			}
		}
	}
	fmt.Fprintf(bw, "POINT_DATA %d\n", n)
	fmt.Fprintln(bw, "VECTORS velocity double")
	for _, v := range s.Vel {
		fmt.Fprintf(bw, "%g %g %g\n", v[0], v[1], v[2])
	}
	return bw.Flush()
}

// The sheet writers print exactly what the fmt writers printed — a moved
// sheet's positions and velocities, NaN, ±Inf and −0 included — for a
// sheet of many fibers and for a single fiber, which has no polygons.
func TestSheetWritersMatchFmtOracle(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-300, -2.5e21}
	one := formatConfig(sampledEngines[0], 1)
	one.Sheets[0].NumFibers = 1
	for _, cfg := range []Config{formatConfig(sampledEngines[2], 2), one} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(3)
		sh := s.firstSheet()
		for i, v := range special {
			sh.X[i%sh.NumNodes()][i%3] = v
			sh.Vel[(i+1)%sh.NumNodes()][(i+1)%3] = special[len(special)-1-i]
		}
		for _, w := range []struct {
			name      string
			got, want func(io.Writer) error
		}{
			{"WriteSheetCSV", s.WriteSheetCSV, func(w io.Writer) error { return oracleSheetCSV(w, sh) }},
			{"WriteSheetVTK", s.WriteSheetVTK, func(w io.Writer) error { return oracleSheetVTK(w, sh) }},
		} {
			var got, want bytes.Buffer
			if err := w.got(&got); err != nil {
				t.Fatal(err)
			}
			if err := w.want(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%d fibers: %s differs from the fmt oracle:\n%s\nwant\n%s", sh.NumFibers, w.name, got.Bytes(), want.Bytes())
			}
			for _, v := range []string{"NaN", "+Inf", "-Inf", "-0"} {
				if !bytes.Contains(got.Bytes(), []byte(v)) {
					t.Errorf("%d fibers: %s lacks the planted %q", sh.NumFibers, w.name, v)
				}
			}
		}
		s.Close()
	}
}
