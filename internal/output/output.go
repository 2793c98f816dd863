// Package output writes simulation snapshots for visualization: fiber
// sheet positions and fluid velocity fields as CSV, and legacy-VTK
// structured/polydata files loadable in ParaView. The moving-sheet and
// fixed-plate examples use it to produce the visual artifacts of the
// paper's Figures 1 and 7.
//
// The fluid writers read each node's record, whatever the grid's block
// extent; they read no distributions, so the phase an in-place engine
// left its array in does not matter. They format on the team of their
// par.Ordered, a chunk of consecutive lines per worker and round, and
// write the chunks in order, so their bytes do not depend on the team's
// width.
package output

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/par"
)

// WriteSheetCSV writes one row per fiber node: fiber, node, x, y, z,
// vx, vy, vz. Numbers print as fmt's %d and %g do.
func WriteSheetCSV(w io.Writer, s *fiber.Sheet) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("fiber,node,x,y,z,vx,vy,vz\n")
	var line []byte
	for f := 0; f < s.NumFibers; f++ {
		for k := 0; k < s.NodesPerFiber; k++ {
			i := s.Idx(f, k)
			line = strconv.AppendInt(line[:0], int64(f), 10)
			line = strconv.AppendInt(append(line, ','), int64(k), 10)
			for _, v := range [6]float64{s.X[i][0], s.X[i][1], s.X[i][2], s.Vel[i][0], s.Vel[i][1], s.Vel[i][2]} {
				line = appendG(append(line, ','), v)
			}
			bw.Write(append(line, '\n'))
		}
	}
	return bw.Flush() // a bufio.Writer keeps its first write error
}

// appendG appends v as fmt's %g verb prints a float64.
func appendG(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// appendVec appends v's components as "%g %g %g\n" prints them.
func appendVec(b []byte, v [3]float64) []byte {
	b = appendG(b, v[0])
	b = appendG(append(b, ' '), v[1])
	b = appendG(append(b, ' '), v[2])
	return append(b, '\n')
}

// WriteFluidSliceCSV writes the velocity field of the x = plane slice as
// CSV rows: y, z, ux, uy, uz, rho; a chunk is one y-row. Numbers print
// as fmt's %d and %g do.
func WriteFluidSliceCSV(w io.Writer, f *grid.Grid, plane int, o *par.Ordered) error {
	nx, ny, _ := f.Dims()
	if plane < 0 || plane >= nx {
		return fmt.Errorf("output: plane %d outside grid of %d x-planes", plane, nx)
	}
	if _, err := io.WriteString(w, "y,z,ux,uy,uz,rho\n"); err != nil {
		return err
	}
	macro, at := f.Macros(), grid.AxisIndex(f)
	return o.Write(w, ny, func(y int, b []byte) []byte {
		xy := at[0][plane] + at[1][y]
		for z, az := range at[2] {
			n := &macro[xy+az]
			b = strconv.AppendInt(b, int64(y), 10)
			b = strconv.AppendInt(append(b, ','), int64(z), 10)
			for _, v := range [4]float64{n.Vel[0], n.Vel[1], n.Vel[2], n.Rho} {
				b = appendG(append(b, ','), v)
			}
			b = append(b, '\n')
		}
		return b
	})
}

// WriteSheetVTK writes the sheet as legacy-VTK polydata: points plus a
// quad cell per sheet facet, with node velocity as point data. Numbers
// print as fmt's %d and %g do.
func WriteSheetVTK(w io.Writer, s *fiber.Sheet) error {
	bw := bufio.NewWriter(w)
	n := s.NumNodes()
	line := []byte("# vtk DataFile Version 3.0\nLBM-IB fiber sheet\nASCII\nDATASET POLYDATA\nPOINTS ")
	line = strconv.AppendInt(line, int64(n), 10)
	bw.Write(append(line, " double\n"...))
	for _, x := range s.X {
		bw.Write(appendVec(line[:0], x))
	}
	nq := (s.NumFibers - 1) * (s.NodesPerFiber - 1)
	if nq > 0 {
		line = strconv.AppendInt(append(line[:0], "POLYGONS "...), int64(nq), 10)
		line = strconv.AppendInt(append(line, ' '), int64(nq*5), 10)
		bw.Write(append(line, '\n'))
		for f := 0; f < s.NumFibers-1; f++ {
			for k := 0; k < s.NodesPerFiber-1; k++ {
				line = append(line[:0], '4')
				for _, i := range [4]int{s.Idx(f, k), s.Idx(f, k+1), s.Idx(f+1, k+1), s.Idx(f+1, k)} {
					line = strconv.AppendInt(append(line, ' '), int64(i), 10)
				}
				bw.Write(append(line, '\n'))
			}
		}
	}
	line = strconv.AppendInt(append(line[:0], "POINT_DATA "...), int64(n), 10)
	bw.Write(append(line, "\nVECTORS velocity double\n"...))
	for _, v := range s.Vel {
		bw.Write(appendVec(line[:0], v))
	}
	return bw.Flush() // a bufio.Writer keeps its first write error
}

// WriteFluidVTK writes the full fluid velocity/density fields as a legacy
// VTK structured-points dataset, x varying fastest as the format
// expects. A chunk is one z-plane of one section: chunk z < NZ holds
// plane z's velocities, chunk NZ+z its densities. Numbers print as fmt's
// %g does.
func WriteFluidVTK(w io.Writer, f *grid.Grid, o *par.Ordered) error {
	nx, ny, nz := f.Dims()
	head := fmt.Appendf(nil, "# vtk DataFile Version 3.0\nLBM-IB fluid grid\nASCII\n"+
		"DATASET STRUCTURED_POINTS\nDIMENSIONS %d %d %d\nORIGIN 0 0 0\nSPACING 1 1 1\n"+
		"POINT_DATA %d\nVECTORS velocity double\n", nx, ny, nz, nx*ny*nz)
	if _, err := w.Write(head); err != nil {
		return err
	}
	macro, at := f.Macros(), grid.AxisIndex(f)
	return o.Write(w, 2*nz, func(c int, b []byte) []byte {
		z := c % nz
		if c == nz {
			b = append(b, "SCALARS rho double 1\nLOOKUP_TABLE default\n"...)
		}
		for y := 0; y < ny; y++ {
			yz := at[1][y] + at[2][z]
			for _, ax := range at[0] {
				n := &macro[ax+yz]
				if c < nz {
					b = appendVec(b, n.Vel)
				} else {
					b = append(appendG(b, n.Rho), '\n')
				}
			}
		}
		return b
	})
}
