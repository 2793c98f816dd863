#include "textflag.h"

// The AVX2 bodies of Collide and FoldCollide on float64 storage
// (kernel.go). Every lane runs kernel.go's expression tree, operation for
// operation and operand for operand: the same products, sums and
// differences in the same order, with no fused multiply-add (it rounds
// once where the tree rounds twice) and no reassociation, so each lane
// rounds exactly where the Go kernel rounds and the result is its bits.
//
// The nine opposite pairs (e, −e) are the lanes. Group A holds pairs x,
// z, y and x+y — + members g1, g5, g3, g7 and − members g2, g6, g4, g8
// — and group B pairs x−y, x−z, x+z and y+z, members g9, g13, g11, g15
// and g10, g14, g12, g16: the lane order in which VUNPCKLPD/VUNPCKHPD
// of the two member vectors are g[1..4] and g[5..8] (g[9..12] and
// g[13..16]), so a group stores as two 32-byte vectors. Pair y−z runs in
// a 2-wide vector, − member low, so that VADDSUBPD forms se−ae and
// se+ae in one instruction; the rest value runs alone.
//
// The populations are loaded 8 bytes at a time and assembled in
// registers: an in-place body may have written the scratch array it
// passes with 8-byte stores just before the call, and a wider load of
// such values cannot be forwarded from the store buffer. The per-node
// scalars are broadcast from their argument slots (8-byte loads as
// well), so every scalar quantity of collide is computed once in all
// four lanes and needs no shuffle to reach a vector.

// Constants, four lanes each unless noted. Bits are those the Go
// compiler gives the constants of kernel.go and d3q19.go: 1, 0.5, 1.5,
// 3, 4.5, 9, and the weights w1 = 1/18, w2 = 1/36, w0 = 1/3 rounded to
// float64.
DATA kc<>+0(SB)/8, $0x3ff0000000000000   // 1
DATA kc<>+8(SB)/8, $0x3ff0000000000000
DATA kc<>+16(SB)/8, $0x3ff0000000000000
DATA kc<>+24(SB)/8, $0x3ff0000000000000
DATA kc<>+32(SB)/8, $0x3fe0000000000000  // 0.5
DATA kc<>+40(SB)/8, $0x3fe0000000000000
DATA kc<>+48(SB)/8, $0x3fe0000000000000
DATA kc<>+56(SB)/8, $0x3fe0000000000000
DATA kc<>+64(SB)/8, $0x3ff8000000000000  // 1.5
DATA kc<>+72(SB)/8, $0x3ff8000000000000
DATA kc<>+80(SB)/8, $0x3ff8000000000000
DATA kc<>+88(SB)/8, $0x3ff8000000000000
DATA kc<>+96(SB)/8, $0x4008000000000000  // 3
DATA kc<>+104(SB)/8, $0x4008000000000000
DATA kc<>+112(SB)/8, $0x4008000000000000
DATA kc<>+120(SB)/8, $0x4008000000000000
DATA kc<>+128(SB)/8, $0x4012000000000000 // 4.5
DATA kc<>+136(SB)/8, $0x4012000000000000
DATA kc<>+144(SB)/8, $0x4012000000000000
DATA kc<>+152(SB)/8, $0x4012000000000000
DATA kc<>+160(SB)/8, $0x4022000000000000 // 9
DATA kc<>+168(SB)/8, $0x4022000000000000
DATA kc<>+176(SB)/8, $0x4022000000000000
DATA kc<>+184(SB)/8, $0x4022000000000000
DATA kc<>+192(SB)/8, $0x3fac71c71c71c71c // group A's weights: w1, w1, w1, w2
DATA kc<>+200(SB)/8, $0x3fac71c71c71c71c
DATA kc<>+208(SB)/8, $0x3fac71c71c71c71c
DATA kc<>+216(SB)/8, $0x3f9c71c71c71c71c
DATA kc<>+224(SB)/8, $0x3fd5555555555555 // w0 (one lane)
DATA kc<>+232(SB)/8, $0x8000000000000000 // the sign bit (one lane)
GLOBL kc<>(SB), RODATA|NOPTR, $240

#define ONE kc<>+0(SB)
#define HALF kc<>+32(SB)
#define C1P5 kc<>+64(SB)
#define THREE kc<>+96(SB)
#define C4P5 kc<>+128(SB)
#define NINE kc<>+160(SB)
#define WA kc<>+192(SB)
#define W0 kc<>+224(SB)
#define SIGN kc<>+232(SB)

// GATHER loads g[o0], g[o1], g[o2], g[o3] (byte offsets from DI) into
// the four lanes of yd with 8-byte loads; xt is clobbered.
#define GATHER(o0, o1, o2, o3, xd, yd, xt) \
	VMOVSD o0(DI), xd; \
	VMOVHPD o1(DI), xd, xd; \
	VMOVSD o2(DI), xt; \
	VMOVHPD o3(DI), xt, xt; \
	VINSERTF128 $1, xt, yd, yd

// GROUP relaxes the four pairs of a group whose e·u and e·f are the
// lanes of Y1 and Y2: pairTerms with ρw in r, 3ρw in r3, (1 − 1/2τ)w in
// p and 3(1 − 1/2τ)w in p3, c in Y14, 3u·f in Y13 and 1/τ in Y15, then
// relax on the + members at a0..a3 and the − members at b0..b3, stored
// back as g[s0/8 .. s0/8+3] and g[s1/8 .. s1/8+3]. It clobbers Y1-Y7.
//
//	se = r (c + (4.5 eu) eu)    ae = (3r) eu
//	sf = p ((9 eu) ef − uf3)    af = (3p) ef
//	g± ← g± + ((1/τ)((se ± ae) − g±) + (sf ± af))
#define GROUP(r, r3, p, p3, a0, a1, a2, a3, b0, b1, b2, b3, s0, s1) \
	VMULPD C4P5, Y1, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD Y3, Y14, Y3; \
	VMULPD Y3, r, Y3; \
	VMULPD Y1, r3, Y4; \
	VMULPD NINE, Y1, Y1; \
	VMULPD Y2, Y1, Y1; \
	VSUBPD Y13, Y1, Y1; \
	VMULPD Y1, p, Y1; \
	VMULPD Y2, p3, Y2; \
	VADDPD Y4, Y3, Y5; \
	VSUBPD Y4, Y3, Y3; \
	VADDPD Y2, Y1, Y4; \
	VSUBPD Y2, Y1, Y1; \
	GATHER(a0, a1, a2, a3, X2, Y2, X7); \
	GATHER(b0, b1, b2, b3, X6, Y6, X7); \
	VSUBPD Y2, Y5, Y5; \
	VMULPD Y5, Y15, Y5; \
	VADDPD Y4, Y5, Y5; \
	VADDPD Y5, Y2, Y2; \
	VSUBPD Y6, Y3, Y3; \
	VMULPD Y3, Y15, Y3; \
	VADDPD Y1, Y3, Y3; \
	VADDPD Y3, Y6, Y6; \
	VUNPCKLPD Y6, Y2, Y1; \
	VUNPCKHPD Y6, Y2, Y2; \
	VMOVUPD Y1, s0(DI); \
	VMOVUPD Y2, s1(DI)

// COLLIDE is collide on the populations at DI with density, velocity,
// force and relaxation time read from the 8-byte memory operands rho,
// ux, uy, uz, fx, fy, fz and tau. It clobbers Y0-Y15. In order: 1/τ
// (Y15), 1 − 1/2τ (Y0), group A's (1 − 1/2τ)w (Y12), c = 1 − 1.5u²
// (Y14), 3u·f (Y13), group A's ρw (Y11); the rest value,
// relax(g0, 1/τ, (ρw0)c, ((−(1 − 1/2τ))w0)uf3); ρw2 (Y10), (1 − 1/2τ)w2
// (Y0) and their triples (Y9, Y8) for pair y−z and group B; pair y−z;
// group B with e·u = (ux−uy, ux−uz, ux+uz, uy+uz) from one subtraction
// and one addition of (ux, ux, ux, uy) and (uy, uz, uz, uz), and e·f
// alike; group A with e·u = (ux, uz, uy, ux+uy) blended from broadcasts,
// and e·f alike.
#define COLLIDE(rho, ux, uy, uz, fx, fy, fz, tau) \
	VMOVSD ONE, X0; \
	VDIVSD tau, X0, X0; \
	VBROADCASTSD X0, Y15; \
	VMULPD HALF, Y15, Y0; \
	VMOVUPD ONE, Y1; \
	VSUBPD Y0, Y1, Y0; \
	VMULPD WA, Y0, Y12; \
	VBROADCASTSD ux, Y1; \
	VBROADCASTSD uy, Y2; \
	VBROADCASTSD uz, Y3; \
	VMULPD Y1, Y1, Y4; \
	VMULPD Y2, Y2, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD Y3, Y3, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD C1P5, Y4, Y4; \
	VMOVUPD ONE, Y14; \
	VSUBPD Y4, Y14, Y14; \
	VBROADCASTSD fx, Y4; \
	VBROADCASTSD fy, Y5; \
	VBROADCASTSD fz, Y6; \
	VMULPD Y4, Y1, Y1; \
	VMULPD Y5, Y2, Y2; \
	VADDPD Y2, Y1, Y1; \
	VMULPD Y6, Y3, Y3; \
	VADDPD Y3, Y1, Y1; \
	VMULPD THREE, Y1, Y13; \
	VBROADCASTSD rho, Y7; \
	VMULPD WA, Y7, Y11; \
	VMULSD W0, X7, X8; \
	VMULSD X14, X8, X8; \
	VMOVSD SIGN, X9; \
	VXORPD X9, X0, X9; \
	VMULSD W0, X9, X9; \
	VMULSD X13, X9, X9; \
	VMOVSD 0(DI), X10; \
	VSUBSD X10, X8, X8; \
	VMULSD X8, X15, X8; \
	VADDSD X9, X8, X8; \
	VADDSD X8, X10, X10; \
	VMOVSD X10, 0(DI); \
	VPERMPD $0xff, Y11, Y10; \
	VPERMPD $0xff, Y12, Y0; \
	VMULPD THREE, Y10, Y9; \
	VMULPD THREE, Y0, Y8; \
	VMOVDDUP uy, X1; \
	VMOVDDUP uz, X2; \
	VSUBPD X2, X1, X1; \
	VMOVDDUP fy, X2; \
	VMOVDDUP fz, X3; \
	VSUBPD X3, X2, X2; \
	VMULPD C4P5, X1, X3; \
	VMULPD X1, X3, X3; \
	VADDPD X3, X14, X3; \
	VMULPD X3, X10, X3; \
	VMULPD X1, X9, X4; \
	VMULPD NINE, X1, X1; \
	VMULPD X2, X1, X1; \
	VSUBPD X13, X1, X1; \
	VMULPD X1, X0, X1; \
	VMULPD X2, X8, X2; \
	VADDSUBPD X4, X3, X3; \
	VADDSUBPD X2, X1, X1; \
	VMOVSD 144(DI), X2; \
	VMOVHPD 136(DI), X2, X2; \
	VSUBPD X2, X3, X3; \
	VMULPD X3, X15, X3; \
	VADDPD X1, X3, X3; \
	VADDPD X3, X2, X2; \
	VMOVLPD X2, 144(DI); \
	VMOVHPD X2, 136(DI); \
	VBROADCASTSD ux, Y1; \
	VBROADCASTSD uy, Y2; \
	VBROADCASTSD uz, Y3; \
	VBLENDPD $8, Y2, Y1, Y4; \
	VBLENDPD $1, Y2, Y3, Y5; \
	VSUBPD Y5, Y4, Y1; \
	VADDPD Y5, Y4, Y4; \
	VBLENDPD $12, Y4, Y1, Y1; \
	VBROADCASTSD fx, Y2; \
	VBROADCASTSD fy, Y3; \
	VBROADCASTSD fz, Y4; \
	VBLENDPD $8, Y3, Y2, Y5; \
	VBLENDPD $1, Y3, Y4, Y6; \
	VSUBPD Y6, Y5, Y2; \
	VADDPD Y6, Y5, Y5; \
	VBLENDPD $12, Y5, Y2, Y2; \
	GROUP(Y10, Y9, Y0, Y8, 72, 104, 88, 120, 80, 112, 96, 128, 72, 104); \
	VMULPD THREE, Y11, Y9; \
	VMULPD THREE, Y12, Y8; \
	VBROADCASTSD ux, Y1; \
	VBROADCASTSD uy, Y2; \
	VBROADCASTSD uz, Y3; \
	VADDPD Y2, Y1, Y4; \
	VBLENDPD $2, Y3, Y1, Y1; \
	VBLENDPD $4, Y2, Y1, Y1; \
	VBLENDPD $8, Y4, Y1, Y1; \
	VBROADCASTSD fx, Y2; \
	VBROADCASTSD fy, Y3; \
	VBROADCASTSD fz, Y4; \
	VADDPD Y3, Y2, Y5; \
	VBLENDPD $2, Y4, Y2, Y2; \
	VBLENDPD $4, Y3, Y2, Y2; \
	VBLENDPD $8, Y5, Y2, Y2; \
	GROUP(Y11, Y9, Y12, Y8, 8, 40, 24, 56, 16, 48, 32, 64, 8, 40)

// func collideAVX2(d *[Q]float64, rho, ux, uy, uz, fx, fy, fz, tau float64)
TEXT ·collideAVX2(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), DI
	COLLIDE(rho+8(FP), ux+16(FP), uy+24(FP), uz+32(FP), fx+40(FP), fy+48(FP), fz+56(FP), tau+64(FP))
	VZEROUPPER
	RET

// func foldCollideAVX2(d *[Q]float64, hx, hy, hz, fx, fy, fz, tau float64) (rho, ux, uy, uz float64)
//
// Moments, then COLLIDE with the density and velocity it wrote to the
// frame, which are also the results. The pair sums and differences come from the group vectors,
// four pairs per instruction; Moments' sums over them run lane 0 by lane
// 0 in its order. COLLIDE loads the groups again: keeping them in the
// frame instead measured no faster.
TEXT ·foldCollideAVX2(SB), NOSPLIT, $32-96
	MOVQ d+0(FP), DI
	GATHER(8, 40, 24, 56, X0, Y0, X7)
	GATHER(16, 48, 32, 64, X1, Y1, X7)
	GATHER(72, 104, 88, 120, X2, Y2, X7)
	GATHER(80, 112, 96, 128, X3, Y3, X7)
	VADDPD Y1, Y0, Y4 // sx, sz, sy, sxy
	VSUBPD Y1, Y0, Y5 // dx, dz, dy, dxy
	VADDPD Y3, Y2, Y6 // sxny, sxnz, sxz, syz
	VSUBPD Y3, Y2, Y7 // dxny, dxnz, dxz, dyz
	VMOVSD 136(DI), X8
	VMOVSD 144(DI), X9
	VADDSD X9, X8, X10 // synz
	VSUBSD X9, X8, X11 // dynz
	VMOVSD 0(DI), X12

	// rho = g0 + ((sx + sy) + sz) + (sxy + sxny) + (sxz + sxnz) + (syz + synz)
	VEXTRACTF128 $1, Y4, X0 // sy, sxy
	VADDSD X0, X4, X1
	VPERMILPD $1, X4, X2 // sz
	VADDSD X2, X1, X1
	VADDSD X1, X12, X12
	VPERMILPD $1, X0, X0 // sxy
	VADDSD X6, X0, X0
	VADDSD X0, X12, X12
	VEXTRACTF128 $1, Y6, X0 // sxz, syz
	VPERMILPD $1, X6, X1    // sxnz
	VADDSD X1, X0, X1
	VADDSD X1, X12, X12
	VPERMILPD $1, X0, X0 // syz
	VADDSD X10, X0, X0
	VADDSD X0, X12, X12
	VMOVSD X12, 0(SP)
	VMOVSD X12, rho+64(FP)

	// Only an exact zero density (either sign) takes the zero branch;
	// NaN is unordered and divides.
	VXORPD X0, X0, X0
	VUCOMISD X0, X12
	JNE   moments
	JPS   moments
	VMOVSD X0, 0(SP)
	VMOVSD X0, rho+64(FP)
	VMOVSD X0, 8(SP)
	VMOVSD X0, 16(SP)
	VMOVSD X0, 24(SP)
	JMP   collide

moments:
	VMOVSD ONE, X0
	VDIVSD X12, X0, X0      // 1/rho
	VEXTRACTF128 $1, Y5, X1 // dy, dxy
	VPERMILPD $1, X1, X2    // dxy
	VPERMILPD $1, X7, X3    // dxnz
	VEXTRACTF128 $1, Y7, X4 // dxz, dyz
	VPERMILPD $1, X4, X6    // dyz
	VPERMILPD $1, X5, X8    // dz

	// u0 = (dx + (dxy + dxny) + (dxz + dxnz) + 0.5 hx) / rho
	VADDSD X7, X2, X9
	VADDSD X9, X5, X9
	VADDSD X3, X4, X10
	VADDSD X10, X9, X9
	VMOVSD hx+8(FP), X10
	VMULSD HALF, X10, X10
	VADDSD X10, X9, X9
	VMULSD X0, X9, X9
	VMOVSD X9, 8(SP)

	// u1 = (dy + (dxy − dxny) + (dyz + dynz) + 0.5 hy) / rho
	VSUBSD X7, X2, X9
	VADDSD X9, X1, X9
	VADDSD X11, X6, X10
	VADDSD X10, X9, X9
	VMOVSD hy+16(FP), X10
	VMULSD HALF, X10, X10
	VADDSD X10, X9, X9
	VMULSD X0, X9, X9
	VMOVSD X9, 16(SP)

	// u2 = (dz + (dxz − dxnz) + (dyz − dynz) + 0.5 hz) / rho
	VSUBSD X3, X4, X9
	VADDSD X9, X8, X9
	VSUBSD X11, X6, X10
	VADDSD X10, X9, X9
	VMOVSD hz+24(FP), X10
	VMULSD HALF, X10, X10
	VADDSD X10, X9, X9
	VMULSD X0, X9, X9
	VMOVSD X9, 24(SP)

collide:
	VMOVSD 8(SP), X0
	VMOVSD X0, ux+72(FP)
	VMOVSD 16(SP), X0
	VMOVSD X0, uy+80(FP)
	VMOVSD 24(SP), X0
	VMOVSD X0, uz+88(FP)
	COLLIDE(0(SP), 8(SP), 16(SP), 24(SP), fx+32(FP), fy+40(FP), fz+48(FP), tau+56(FP))
	VZEROUPPER
	RET
