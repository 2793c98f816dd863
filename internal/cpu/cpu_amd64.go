package cpu

// detected is the probe's choice; vector is what runs, detected except
// inside PortableForTest.
var (
	detected = !race && detectAVX2()
	vector   = detected
)

// PortableForTest selects the Go bodies until the returned function
// restores the probe's choice. It serves the tests and benchmarks that
// hold the two bodies of a piece against each other through a caller in
// another package (core.SpreadBox over the stencil, the spread and the
// gather); scripts/verify.sh fails if a non-test file outside this
// package names it. It
// changes which body runs, never a bit, and is not safe to call while
// another goroutine steps.
func PortableForTest() (restore func()) {
	vector = false
	return func() { vector = detected }
}

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
