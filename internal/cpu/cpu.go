// Package cpu probes the host once, at initialisation, for the vector
// bodies of the packages that have them: the node kernel
// (internal/lattice), the Peskin stencil (internal/ibm) and the spread
// and gather of the IB coupling (internal/grid). Each of those bodies
// computes its Go twin's expression tree operation for operation, so the
// probe decides only the speed of a step, never its bits.
//
// Race builds (go test -race) select the Go bodies everywhere: the race
// detector does not instrument assembly, and the Go bodies make every
// record and distribution access visible to it.
package cpu

// Vector reports whether the AVX2 bodies run: the host is amd64, the CPU
// reports AVX2, the operating system saves the YMM registers across
// context switches, and the race detector is off.
func Vector() bool { return vector }
