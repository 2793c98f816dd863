//go:build !amd64

package lattice

// Without a vector body the Go kernel is the only path. The twin below
// keeps the calls to the amd64 body compiling; cpu.Vector is false, so
// it never runs.

func collideAVX2(f *float64, grp *Group, n int, uniform bool, r *Record, fold, force *[3]float64, tau float64, out *[Lanes]State) {
	panic("lattice: no vector body on this architecture")
}

func momentsAVX2(f *float64, grp *Group, n int, uniform bool, r *Record, reset *[3]float64) {
	panic("lattice: no vector body on this architecture")
}
