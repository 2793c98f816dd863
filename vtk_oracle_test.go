package lbmib

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

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
