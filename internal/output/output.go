// Package output writes simulation snapshots for visualization: fiber
// sheet positions and fluid velocity fields as CSV, and legacy-VTK
// structured/polydata files loadable in ParaView. The moving-sheet and
// fixed-plate examples use it to produce the visual artifacts of the
// paper's Figures 1 and 7.
package output

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
)

// WriteSheetCSV writes one row per fiber node: fiber, node, x, y, z,
// vx, vy, vz.
func WriteSheetCSV(w io.Writer, s *fiber.Sheet) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "fiber,node,x,y,z,vx,vy,vz"); err != nil {
		return err
	}
	for f := 0; f < s.NumFibers; f++ {
		for k := 0; k < s.NodesPerFiber; k++ {
			i := s.Idx(f, k)
			x, v := s.X[i], s.Vel[i]
			if _, err := fmt.Fprintf(bw, "%d,%d,%g,%g,%g,%g,%g,%g\n",
				f, k, x[0], x[1], x[2], v[0], v[1], v[2]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// appendG appends v as fmt's %g verb prints a float64.
func appendG(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// WriteFluidSliceCSV writes the velocity field of the x = plane slice as
// CSV rows: y, z, ux, uy, uz, rho. The fluid writers read each node's
// record, whatever f's block extent; they read no distributions, so the
// phase an in-place engine left its array in does not matter.
func WriteFluidSliceCSV(w io.Writer, f *grid.Grid, plane int) error {
	nx, ny, nz := f.Dims()
	if plane < 0 || plane >= nx {
		return fmt.Errorf("output: plane %d outside grid of %d x-planes", plane, nx)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("y,z,ux,uy,uz,rho\n")
	macro, at := f.Macros(), grid.AxisIndex(f)
	var line []byte
	for y := 0; y < ny; y++ {
		for z := 0; z < nz; z++ {
			n := &macro[at[0][plane]+at[1][y]+at[2][z]]
			line = strconv.AppendInt(line[:0], int64(y), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(z), 10)
			for _, v := range [4]float64{n.Vel[0], n.Vel[1], n.Vel[2], n.Rho} {
				line = appendG(append(line, ','), v)
			}
			bw.Write(append(line, '\n'))
		}
	}
	return bw.Flush() // a bufio.Writer keeps its first write error
}

// WriteSheetVTK writes the sheet as legacy-VTK polydata: points plus a
// quad cell per sheet facet, with node velocity as point data.
func WriteSheetVTK(w io.Writer, s *fiber.Sheet) error {
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
				fmt.Fprintf(bw, "4 %d %d %d %d\n",
					s.Idx(f, k), s.Idx(f, k+1), s.Idx(f+1, k+1), s.Idx(f+1, k))
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

// WriteFluidVTK writes the full fluid velocity/density fields as a legacy
// VTK structured-points dataset. Numbers print as fmt's %g does.
func WriteFluidVTK(w io.Writer, f *grid.Grid) error {
	nx, ny, nz := f.Dims()
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# vtk DataFile Version 3.0")
	fmt.Fprintln(bw, "LBM-IB fluid grid")
	fmt.Fprintln(bw, "ASCII")
	fmt.Fprintln(bw, "DATASET STRUCTURED_POINTS")
	fmt.Fprintf(bw, "DIMENSIONS %d %d %d\n", nx, ny, nz)
	fmt.Fprintln(bw, "ORIGIN 0 0 0")
	fmt.Fprintln(bw, "SPACING 1 1 1")
	fmt.Fprintf(bw, "POINT_DATA %d\n", nx*ny*nz)
	fmt.Fprintln(bw, "VECTORS velocity double")
	macro, at := f.Macros(), grid.AxisIndex(f)
	var line []byte
	// VTK structured points expect x varying fastest.
	each := func(row func(n *grid.Macro)) {
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				yz := at[1][y] + at[2][z]
				for x := 0; x < nx; x++ {
					row(&macro[at[0][x]+yz])
				}
			}
		}
	}
	each(func(n *grid.Macro) {
		line = appendG(line[:0], n.Vel[0])
		line = appendG(append(line, ' '), n.Vel[1])
		line = appendG(append(line, ' '), n.Vel[2])
		bw.Write(append(line, '\n'))
	})
	fmt.Fprintln(bw, "SCALARS rho double 1")
	fmt.Fprintln(bw, "LOOKUP_TABLE default")
	each(func(n *grid.Macro) {
		bw.Write(append(appendG(line[:0], n.Rho), '\n'))
	})
	return bw.Flush() // a bufio.Writer keeps its first write error
}
