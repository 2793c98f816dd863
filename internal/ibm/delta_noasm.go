//go:build !amd64

package ibm

// Without a vector body the Go body is the only path. The twin below
// keeps Compute's call to the amd64 body compiling; cpu.Vector is false,
// so it never runs.

func computeAVX2(s *Stencil, x0, x1, x2 float64) bool { return false }
