package grid

import "lbmib/internal/ibm"

// spreadAVX2 and gatherAVX2 are spreadGo and gatherGo on the host's
// vector unit (coupling_amd64.s), which addresses a record's fields and
// the stencil's weights at the byte offsets its header lists and
// TestMacroLayout and ibm's TestStencilLayout pin. They index
// m without a bounds check: o holds indices the layout's axis tables
// produced.
//
//go:noescape
func spreadAVX2(m []Macro, st *ibm.Stencil, o *[3][ibm.SupportWidth]int, f0, f1, f2, area float64)

//go:noescape
func gatherAVX2(m []Macro, st *ibm.Stencil, o *[3][ibm.SupportWidth]int) (u0, u1, u2 float64)
