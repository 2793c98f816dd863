#include "textflag.h"

// The AVX2 bodies of Coupling.spread and Coupling.gather (coupling.go).
// Each is its Go loop's expression tree operation for operation, with no
// fused multiply-add, and skips an exact zero at the same level:
//
//	for i: wx == 0 skips the plane
//	  for j: wxy = wx·wy; wxy == 0 skips the row
//	    for k: w = wxy·wz[k] (·area for the spread); w == 0 skips the point
//
// A plane's four wxy are one vector (wx times the y weights) and a row's
// four w another (wxy times the z weights), so a plane costs one
// multiply and a row one (two for the spread), each with one compare
// that yields its zero mask: wx == 0 and wxy == 0 are ordered, false for
// a NaN, and w ≠ 0 is the unordered not-equal, true for a NaN w as Go's
// != is. A row whose four w are all non-zero runs its points straight
// through; any other tests each point's bit. A point's weight reaches
// all lanes by VPERMPD.
//
// The spread updates a point's Force with F·w rounded, then added:
// Force[0] and Force[1] as one 2-wide read-modify-write and Force[2] as
// a scalar one, so no byte outside the three components is written (a
// 32-byte store would write the next record's velocity). The gather
// loads a point's Vel and ρ as one 32-byte vector, all inside the
// record, and adds w·(Vel, ρ) to a 4-lane sum in (i, j, k) order; the ρ
// lane is dropped at the end.
//
// A record (Macro) is 56 bytes: Vel at 0, Rho at 24, Force at 32
// (TestMacroLayout). The stencil's weights are at 24 (Wx), 56 (Wy) and
// 88 (Wz) of ibm.Stencil (ibm's TestStencilLayout), and o is the
// [3][4]int of record indices, x at 0, y at 32, z at 64.

// ROW runs the points of row j of the current plane through the point
// body POINT(k, zk): Y7 holds the plane's four wxy and R14 the bits of
// those that are exactly zero, AX the plane's byte offset; POINT finds
// the row's w vector in Y4, the row's byte offset in R12 and the
// point's record address as (R12)(zk*1). The row's w vector is
// wxy·Wz, then SCALE (the spread's ·area). sel is the VPERMPD selector
// that broadcasts lane j; the other arguments are labels local to the
// row. It clobbers R12, R13, Y4 and Y5.
#define ROW(j, sel, skip, sparse, k1, k2, k3) \
	TESTQ $(1<<j), R14; \
	JNE skip; \
	VPERMPD sel, Y7, Y4; \
	VMULPD Y3, Y4, Y4; \
	SCALE; \
	VCMPPD $4, Y15, Y4, Y5; \
	VMOVMSKPD Y5, R13; \
	MOVQ (8*j)(SP), R12; \
	ADDQ AX, R12; \
	CMPQ R13, $15; \
	JNE sparse; \
	POINT($0x00, R8); \
	POINT($0x55, R9); \
	POINT($0xaa, R10); \
	POINT($0xff, R11); \
	JMP skip; \
sparse: \
	TESTQ $1, R13; \
	JEQ k1; \
	POINT($0x00, R8); \
k1: \
	TESTQ $2, R13; \
	JEQ k2; \
	POINT($0x55, R9); \
k2: \
	TESTQ $4, R13; \
	JEQ k3; \
	POINT($0xaa, R10); \
k3: \
	TESTQ $8, R13; \
	JEQ skip; \
	POINT($0xff, R11); \
skip:

// PLANES runs the i loop: a plane whose wx is exactly zero is skipped,
// and the others run their four rows (ROW) with the plane's wxy = wx·Wy
// in Y7, the bits of those exactly zero (ordered: a NaN is not) in R14
// and the plane's byte offset in AX. It clobbers AX, CX, R12-R14, X6 and
// Y4-Y7.
#define PLANES \
	XORQ CX, CX; \
plane: \
	VMOVSD 24(SI)(CX*8), X6; \
	VUCOMISD X15, X6; \
	JPS planego; \
	JEQ nextplane; \
planego: \
	VBROADCASTSD X6, Y7; \
	VMULPD Y2, Y7, Y7; \
	VCMPPD $0, Y15, Y7, Y5; \
	VMOVMSKPD Y5, R14; \
	IMUL3Q $56, (DX)(CX*8), AX; \
	ROW(0, $0x00, row0, sparse0, k10, k20, k30) \
	ROW(1, $0x55, row1, sparse1, k11, k21, k31) \
	ROW(2, $0xaa, row2, sparse2, k12, k22, k32) \
	ROW(3, $0xff, row3, sparse3, k13, k23, k33) \
nextplane: \
	INCQ CX; \
	CMPQ CX, $4; \
	JLT plane

// OFFSETS prepares the loops: the record address of each z offset in
// R8-R11 (the records' base DI plus 56 times the index), the byte
// offset of each y index at 0(SP)..24(SP), the z weights in Y3, the y
// weights in Y2 and zero in Y15. It clobbers R12.
#define OFFSETS \
	IMUL3Q $56, 64(DX), R8; \
	IMUL3Q $56, 72(DX), R9; \
	IMUL3Q $56, 80(DX), R10; \
	IMUL3Q $56, 88(DX), R11; \
	ADDQ DI, R8; \
	ADDQ DI, R9; \
	ADDQ DI, R10; \
	ADDQ DI, R11; \
	IMUL3Q $56, 32(DX), R12; \
	MOVQ R12, 0(SP); \
	IMUL3Q $56, 40(DX), R12; \
	MOVQ R12, 8(SP); \
	IMUL3Q $56, 48(DX), R12; \
	MOVQ R12, 16(SP); \
	IMUL3Q $56, 56(DX), R12; \
	MOVQ R12, 24(SP); \
	VMOVUPD 88(SI), Y3; \
	VMOVUPD 56(SI), Y2; \
	VXORPD Y15, Y15, Y15

// func spreadAVX2(m []Macro, st *ibm.Stencil, o *[3][4]int, f0, f1, f2, area float64)
TEXT ·spreadAVX2(SB), NOSPLIT, $32-72
	MOVQ m_base+0(FP), DI
	MOVQ st+24(FP), SI
	MOVQ o+32(FP), DX
	OFFSETS
	VMOVSD f0+40(FP), X0
	VMOVHPD f1+48(FP), X0, X0
	VMOVSD f2+56(FP), X1
	VBROADCASTSD area+64(FP), Y11
#define SCALE VMULPD Y11, Y4, Y4
#define POINT(k, zk) \
	VPERMPD k, Y4, Y8; \
	VMULPD X8, X0, X9; \
	VMULSD X8, X1, X10; \
	VADDPD 32(R12)(zk*1), X9, X9; \
	VADDSD 48(R12)(zk*1), X10, X10; \
	VMOVUPD X9, 32(R12)(zk*1); \
	VMOVSD X10, 48(R12)(zk*1)
	PLANES
#undef SCALE
#undef POINT
	VZEROUPPER
	RET

// func gatherAVX2(m []Macro, st *ibm.Stencil, o *[3][4]int) (u0, u1, u2 float64)
TEXT ·gatherAVX2(SB), NOSPLIT, $32-64
	MOVQ m_base+0(FP), DI
	MOVQ st+24(FP), SI
	MOVQ o+32(FP), DX
	OFFSETS
	VXORPD Y0, Y0, Y0
#define SCALE
#define POINT(k, zk) \
	VPERMPD k, Y4, Y8; \
	VMULPD 0(R12)(zk*1), Y8, Y9; \
	VADDPD Y9, Y0, Y0
	PLANES
#undef SCALE
#undef POINT
	VMOVSD X0, u0+40(FP)
	VMOVHPD X0, u1+48(FP)
	VEXTRACTF128 $1, Y0, X0
	VMOVSD X0, u2+56(FP)
	VZEROUPPER
	RET
