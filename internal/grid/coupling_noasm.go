//go:build !amd64

package grid

import "lbmib/internal/ibm"

// Without a vector body the Go loops are the only path. The twins below
// keep spread's and gather's calls to the amd64 bodies compiling;
// cpu.Vector is false, so they never run.

func spreadAVX2(m []Macro, st *ibm.Stencil, o *[3][ibm.SupportWidth]int, f0, f1, f2, area float64) {
	spreadGo(m, st, o, [3]float64{f0, f1, f2}, area)
}

func gatherAVX2(m []Macro, st *ibm.Stencil, o *[3][ibm.SupportWidth]int) (u0, u1, u2 float64) {
	u := gatherGo(m, st, o)
	return u[0], u[1], u[2]
}
