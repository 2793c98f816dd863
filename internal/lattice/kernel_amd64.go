package lattice

// haveAVX2 selects the vector bodies of Collide and FoldCollide
// (kernel_amd64.s), once, at package initialisation: the CPU reports
// AVX2 and the operating system saves the YMM registers across context
// switches.
var haveAVX2 = detectAVX2()

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

// collideAVX2 is collide on float64 storage, the nine opposite pairs in
// the lanes of two 4-wide vectors and one 2-wide one.
//
//go:noescape
func collideAVX2(d *[Q]float64, rho, ux, uy, uz, fx, fy, fz, tau float64)

// foldCollideAVX2 is foldCollide on float64 storage; hx, hy, hz is the
// fold force and fx, fy, fz the collision's.
//
//go:noescape
func foldCollideAVX2(d *[Q]float64, hx, hy, hz, fx, fy, fz, tau float64) (rho float64)
