package ibm

// computeAVX2 is compute on the host's vector unit (delta_amd64.s): the
// four weights of an axis are one vector's lanes. It serves coordinates
// below 2⁵² in magnitude and reports false, the stencil partly written,
// for any other position. It addresses Base, Wx, Wy and Wz at byte
// offsets 0, 24, 56 and 88 (TestStencilLayout).
//
//go:noescape
func computeAVX2(s *Stencil, x0, x1, x2 float64) (ok bool)
