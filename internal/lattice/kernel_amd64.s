#include "textflag.h"

// The AVX2 body of the node kernel on float64 storage (kernel.go,
// group.go): Collide or FoldCollide of up to four nodes per call, one
// node per lane. Every lane runs kernel.go's expression tree, operation
// for operation: the same products, sums and differences in the same
// order, with no fused multiply-add (it rounds once where the tree
// rounds twice) and no reassociation, so each lane rounds exactly where
// the Go kernel rounds and the result is its bits.
//
// The nodes' populations are transposed on the way in: direction q of
// the four nodes becomes one vector, lane k node k's g_q, kept in the
// frame as d_q. Directions 0–15 are read as four blocks of four, each
// from two 16-byte loads per node, paired across the 128-bit halves by
// VINSERTF128 and split by VUNPCKLPD/VUNPCKHPD; directions 16 and 17
// come as one 16-byte load per node and 18 as one 8-byte load, so no
// access reaches past a node's 152 bytes — the last record of an array
// included. The records are transposed the same way: Vel and Rho as two
// 16-byte loads per node, Force from offsets 24 and 40, so that no load
// passes the record's 56 bytes either.
//
// The per-call scalars — 1/τ, 1 − 1/2τ and its multiples by the
// weights, and with a given force the force — are formed once and
// broadcast, the per-node ones (c = 1 − 1.5u², 3u·f, ρw) once per
// group, and each of the nine opposite pairs is then one pass of
// pairTerms and relax over four nodes. On the way out the vectors are
// transposed back, with the two members of every pair traded when the
// caller asks (trade: value q stored at slot Opposite[q]). A group of
// n < 4 nodes loads lane n−1's node into the lanes it does not use and
// stores those lanes into the frame, never into memory of its caller.

// Constants, four lanes each. Bits are those the Go compiler gives the
// constants of kernel.go and d3q19.go: 1, 0.5, 1.5, 3, 4.5, 9, the
// weights w0 = 1/3, w1 = 1/18, w2 = 1/36 rounded to float64, and the
// sign bit.
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
DATA kc<>+192(SB)/8, $0x3fd5555555555555 // w0
DATA kc<>+200(SB)/8, $0x3fd5555555555555
DATA kc<>+208(SB)/8, $0x3fd5555555555555
DATA kc<>+216(SB)/8, $0x3fd5555555555555
DATA kc<>+224(SB)/8, $0x3fac71c71c71c71c // w1
DATA kc<>+232(SB)/8, $0x3fac71c71c71c71c
DATA kc<>+240(SB)/8, $0x3fac71c71c71c71c
DATA kc<>+248(SB)/8, $0x3fac71c71c71c71c
DATA kc<>+256(SB)/8, $0x3f9c71c71c71c71c // w2
DATA kc<>+264(SB)/8, $0x3f9c71c71c71c71c
DATA kc<>+272(SB)/8, $0x3f9c71c71c71c71c
DATA kc<>+280(SB)/8, $0x3f9c71c71c71c71c
DATA kc<>+288(SB)/8, $0x8000000000000000 // the sign bit (one lane)
GLOBL kc<>(SB), RODATA|NOPTR, $296

#define ONE kc<>+0(SB)
#define HALF kc<>+32(SB)
#define C1P5 kc<>+64(SB)
#define THREE kc<>+96(SB)
#define C4P5 kc<>+128(SB)
#define NINE kc<>+160(SB)
#define W0 kc<>+192(SB)
#define W1 kc<>+224(SB)
#define W2 kc<>+256(SB)
#define SIGN kc<>+288(SB)

// The frame, from R13, a 32-byte aligned address in it: d_q at 32q
// (0–576); per-node ρw1, ρw2, 3ρw1, 3ρw2, ρw0; the per-call broadcasts
// (1 − 1/2τ)w1, (1 − 1/2τ)w2, their triples and (−(1 − 1/2τ))w0; the
// densities; and 152 bytes that take the stores of unused lanes.
#define RW1 608(R13)
#define RW2 640(R13)
#define RW1T 672(R13)
#define RW2T 704(R13)
#define RW0 736(R13)
#define PW1 768(R13)
#define PW2 800(R13)
#define PW1T 832(R13)
#define PW2T 864(R13)
#define NW0 896(R13)
#define RHO 928(R13)
#define TRASH 960(R13)

// Registers held across the body: AX the trade flag, CX the node count n;
// DI, SI, R8, R9 the populations of lanes 0–3 (loads), then DI, R10,
// R11, R12 where lanes 0–3 store; R10, R11, R12, BX the records of
// lanes 0–3. Y12, Y11, Y10 hold ux, uy, uz, Y9, Y8, Y7 fx, fy, fz, Y14
// c, Y13 3u·f and Y15 1/τ while the pairs run; Y0–Y6 are scratch.

// LOAD4 transposes directions o/8 .. o/8+3 (byte offsets o and o16 =
// o+16) of the four lanes' populations into d at frame offsets f0..f3.
#define LOAD4(o, o16, f0, f1, f2, f3) \
	VMOVUPD o(DI), X0; \
	VINSERTF128 $1, o(R8), Y0, Y0; \
	VMOVUPD o(SI), X1; \
	VINSERTF128 $1, o(R9), Y1, Y1; \
	VMOVUPD o16(DI), X2; \
	VINSERTF128 $1, o16(R8), Y2, Y2; \
	VMOVUPD o16(SI), X3; \
	VINSERTF128 $1, o16(R9), Y3, Y3; \
	VUNPCKLPD Y1, Y0, Y4; \
	VUNPCKHPD Y1, Y0, Y5; \
	VUNPCKLPD Y3, Y2, Y6; \
	VUNPCKHPD Y3, Y2, Y7; \
	VMOVAPD Y4, f0(R13); \
	VMOVAPD Y5, f1(R13); \
	VMOVAPD Y6, f2(R13); \
	VMOVAPD Y7, f3(R13)

// LOAD1 assembles direction o/8 of the four lanes into d at frame
// offset f with 8-byte loads: direction 18, the last 8 bytes of a node.
#define LOAD1(o, f) \
	VMOVSD o(DI), X0; \
	VMOVHPD o(SI), X0, X0; \
	VMOVSD o(R8), X1; \
	VMOVHPD o(R9), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0; \
	VMOVAPD Y0, f(R13)

// STORE4 stores d at frame offsets v0..v3 as slots o/8 .. o/8+3 of the
// four lanes: the inverse of LOAD4.
#define STORE4(o, o16, v0, v1, v2, v3) \
	VMOVAPD v0(R13), Y0; \
	VMOVAPD v1(R13), Y1; \
	VMOVAPD v2(R13), Y2; \
	VMOVAPD v3(R13), Y3; \
	VUNPCKLPD Y1, Y0, Y4; \
	VUNPCKHPD Y1, Y0, Y5; \
	VUNPCKLPD Y3, Y2, Y6; \
	VUNPCKHPD Y3, Y2, Y7; \
	VMOVUPD X4, o(DI); \
	VMOVUPD X6, o16(DI); \
	VMOVUPD X5, o(R10); \
	VMOVUPD X7, o16(R10); \
	VEXTRACTF128 $1, Y4, o(R11); \
	VEXTRACTF128 $1, Y6, o16(R11); \
	VEXTRACTF128 $1, Y5, o(R12); \
	VEXTRACTF128 $1, Y7, o16(R12)

// STORE3 stores d at frame offsets v16, v17, v18 as slots 16, 17, 18.
#define STORE3(v16, v17, v18) \
	VMOVAPD v16(R13), Y0; \
	VMOVAPD v17(R13), Y1; \
	VMOVAPD v18(R13), Y2; \
	VUNPCKLPD Y1, Y0, Y4; \
	VUNPCKHPD Y1, Y0, Y5; \
	VMOVUPD X4, 128(DI); \
	VMOVUPD X5, 128(R10); \
	VEXTRACTF128 $1, Y4, 128(R11); \
	VEXTRACTF128 $1, Y5, 128(R12); \
	VMOVSD X2, 144(DI); \
	VMOVHPD X2, 144(R10); \
	VEXTRACTF128 $1, Y2, X3; \
	VMOVSD X3, 144(R11); \
	VMOVHPD X3, 144(R12)

// PAIR relaxes the opposite pair whose members' d are at frame offsets
// a (+e) and b (−e), with e·u in eu and e·f in ef: pairTerms with ρw in
// r, 3ρw in r3, (1 − 1/2τ)w in p and 3(1 − 1/2τ)w in p3, then relax.
//
//	se = r (c + (4.5 eu) eu)    ae = (3r) eu
//	sf = p ((9 eu) ef − uf3)    af = (3p) ef
//	g± ← g± + ((1/τ)((se ± ae) − g±) + (sf ± af))
#define PAIR(eu, ef, r, r3, p, p3, a, b) \
	VMULPD C4P5, eu, Y2; \
	VMULPD eu, Y2, Y2; \
	VADDPD Y2, Y14, Y2; \
	VMULPD r, Y2, Y2; \
	VMULPD r3, eu, Y3; \
	VMULPD NINE, eu, Y4; \
	VMULPD ef, Y4, Y4; \
	VSUBPD Y13, Y4, Y4; \
	VMULPD p, Y4, Y4; \
	VMULPD p3, ef, Y5; \
	VADDPD Y3, Y2, Y6; \
	VSUBPD Y3, Y2, Y2; \
	VADDPD Y5, Y4, Y3; \
	VSUBPD Y5, Y4, Y4; \
	VMOVAPD a(R13), Y0; \
	VSUBPD Y0, Y6, Y6; \
	VMULPD Y6, Y15, Y6; \
	VADDPD Y3, Y6, Y6; \
	VADDPD Y6, Y0, Y0; \
	VMOVAPD Y0, a(R13); \
	VMOVAPD b(R13), Y1; \
	VSUBPD Y1, Y2, Y2; \
	VMULPD Y2, Y15, Y2; \
	VADDPD Y4, Y2, Y2; \
	VADDPD Y2, Y1, Y1; \
	VMOVAPD Y1, b(R13)

// SUM and DIFF form a pair's sum and difference d_a ± d_b into y.
#define SUM(a, b, y) \
	VMOVAPD a(R13), y; \
	VADDPD b(R13), y, y

#define DIFF(a, b, y) \
	VMOVAPD a(R13), y; \
	VSUBPD b(R13), y, y

// HALFFOLD broadcasts 0.5 times the fold force component at o(DX) into
// Y0.
#define HALFFOLD(o) \
	VMOVSD o(DX), X0; \
	VMULSD HALF, X0, X0; \
	VBROADCASTSD X0, Y0

// func collideAVX2(d *[Q]float64, r *Record, n int, fold, force *[3]float64, tau float64, trade bool, out *[Lanes]State)
TEXT ·collideAVX2(SB), 0, $1152-64
	LEAQ 31(SP), R13
	ANDQ $-32, R13
	MOVQ n+16(FP), CX
	MOVBQZX trade+48(FP), AX

	// Lane k reads node min(k, n−1).
	MOVQ d+0(FP), DI
	LEAQ 152(DI), SI
	CMPQ CX, $1
	CMOVQLE DI, SI
	LEAQ 152(SI), R8
	CMPQ CX, $2
	CMOVQLE SI, R8
	LEAQ 152(R8), R9
	CMPQ CX, $3
	CMOVQLE R8, R9
	MOVQ r+8(FP), R10
	LEAQ 56(R10), R11
	CMPQ CX, $1
	CMOVQLE R10, R11
	LEAQ 56(R11), R12
	CMPQ CX, $2
	CMOVQLE R11, R12
	LEAQ 56(R12), BX
	CMPQ CX, $3
	CMOVQLE R12, BX

	LOAD4(0, 16, 0, 32, 64, 96)
	LOAD4(32, 48, 128, 160, 192, 224)
	LOAD4(64, 80, 256, 288, 320, 352)
	LOAD4(96, 112, 384, 416, 448, 480)
	VMOVUPD 128(DI), X0
	VINSERTF128 $1, 128(R8), Y0, Y0
	VMOVUPD 128(SI), X1
	VINSERTF128 $1, 128(R9), Y1, Y1
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VMOVAPD Y4, 512(R13)
	VMOVAPD Y5, 544(R13)
	LOAD1(144, 576)

	MOVQ fold+24(FP), DX
	TESTQ DX, DX
	JNZ folded

	// The records' velocity (Y12, Y11, Y10) and density.
	VMOVUPD 0(R10), X0
	VINSERTF128 $1, 0(R12), Y0, Y0
	VMOVUPD 0(R11), X1
	VINSERTF128 $1, 0(BX), Y1, Y1
	VMOVUPD 16(R10), X2
	VINSERTF128 $1, 16(R12), Y2, Y2
	VMOVUPD 16(R11), X3
	VINSERTF128 $1, 16(BX), Y3, Y3
	VUNPCKLPD Y1, Y0, Y12
	VUNPCKHPD Y1, Y0, Y11
	VUNPCKLPD Y3, Y2, Y10
	VUNPCKHPD Y3, Y2, Y6
	VMOVAPD Y6, RHO
	JMP forces

folded:
	// Moments under the fold force at DX: the pair sums into ρ in
	// Moments' order, g0 + ((sx + sy) + sz) + (sxy + sxny) + (sxz +
	// sxnz) + (syz + synz); the pair differences into the momentum.
	SUM(32, 64, Y0)
	SUM(96, 128, Y1)
	VADDPD Y1, Y0, Y0
	SUM(160, 192, Y1)
	VADDPD Y1, Y0, Y0
	VMOVAPD 0(R13), Y1
	VADDPD Y0, Y1, Y1
	SUM(224, 256, Y0)
	SUM(288, 320, Y2)
	VADDPD Y2, Y0, Y0
	VADDPD Y0, Y1, Y1
	SUM(352, 384, Y0)
	SUM(416, 448, Y2)
	VADDPD Y2, Y0, Y0
	VADDPD Y0, Y1, Y1
	SUM(480, 512, Y0)
	SUM(544, 576, Y2)
	VADDPD Y2, Y0, Y0
	VADDPD Y0, Y1, Y1
	DIFF(32, 64, Y2)   // dx
	DIFF(96, 128, Y3)  // dy
	DIFF(160, 192, Y4) // dz
	DIFF(224, 256, Y5) // dxy
	DIFF(288, 320, Y6) // dxny
	DIFF(352, 384, Y7) // dxz
	DIFF(416, 448, Y8) // dxnz
	DIFF(480, 512, Y9) // dyz
	DIFF(544, 576, Y10) // dynz
	VMOVUPD ONE, Y15
	VDIVPD Y1, Y15, Y15
	// Only an exact zero density (either sign) takes Moments' zero
	// branch: its lanes keep ρ = u = +0. NaN is unordered and divides.
	VXORPD Y0, Y0, Y0
	VCMPPD $0, Y0, Y1, Y14

	// u0 = (dx + (dxy + dxny) + (dxz + dxnz) + 0.5 hx) / ρ
	VADDPD Y6, Y5, Y12
	VADDPD Y12, Y2, Y12
	VADDPD Y8, Y7, Y0
	VADDPD Y0, Y12, Y12
	HALFFOLD(0)
	VADDPD Y0, Y12, Y12
	VMULPD Y15, Y12, Y12

	// u1 = (dy + (dxy − dxny) + (dyz + dynz) + 0.5 hy) / ρ
	VSUBPD Y6, Y5, Y11
	VADDPD Y11, Y3, Y11
	VADDPD Y10, Y9, Y0
	VADDPD Y0, Y11, Y11
	HALFFOLD(8)
	VADDPD Y0, Y11, Y11
	VMULPD Y15, Y11, Y11

	// u2 = (dz + (dxz − dxnz) + (dyz − dynz) + 0.5 hz) / ρ
	VSUBPD Y8, Y7, Y13
	VADDPD Y13, Y4, Y13
	VSUBPD Y10, Y9, Y0
	VADDPD Y0, Y13, Y13
	HALFFOLD(16)
	VADDPD Y0, Y13, Y13
	VMULPD Y15, Y13, Y13

	VANDNPD Y1, Y14, Y1
	VANDNPD Y12, Y14, Y12
	VANDNPD Y11, Y14, Y11
	VANDNPD Y13, Y14, Y10
	VMOVAPD Y1, RHO

forces:
	MOVQ force+32(FP), DX
	TESTQ DX, DX
	JNZ given

	// The records' force (Y9, Y8, Y7).
	VMOVUPD 24(R10), X0
	VINSERTF128 $1, 24(R12), Y0, Y0
	VMOVUPD 24(R11), X1
	VINSERTF128 $1, 24(BX), Y1, Y1
	VMOVUPD 40(R10), X2
	VINSERTF128 $1, 40(R12), Y2, Y2
	VMOVUPD 40(R11), X3
	VINSERTF128 $1, 40(BX), Y3, Y3
	VUNPCKHPD Y1, Y0, Y9
	VUNPCKLPD Y3, Y2, Y8
	VUNPCKHPD Y3, Y2, Y7
	JMP outputs

given:
	VBROADCASTSD 0(DX), Y9
	VBROADCASTSD 8(DX), Y8
	VBROADCASTSD 16(DX), Y7

outputs:
	// What each lane collides with, as out[k] = {u, ρ}.
	MOVQ out+56(FP), DX
	TESTQ DX, DX
	JZ scalars
	VMOVAPD RHO, Y6
	VUNPCKLPD Y11, Y12, Y0
	VUNPCKHPD Y11, Y12, Y1
	VUNPCKLPD Y6, Y10, Y2
	VUNPCKHPD Y6, Y10, Y3
	VMOVUPD X0, 0(DX)
	VMOVUPD X2, 16(DX)
	VMOVUPD X1, 32(DX)
	VMOVUPD X3, 48(DX)
	VEXTRACTF128 $1, Y0, 64(DX)
	VEXTRACTF128 $1, Y2, 80(DX)
	VEXTRACTF128 $1, Y1, 96(DX)
	VEXTRACTF128 $1, Y3, 112(DX)

scalars:
	// Per node: c = 1 − 1.5((ux ux + uy uy) + uz uz) (Y14),
	// 3((ux fx + uy fy) + uz fz) (Y13), ρw1, ρw2, 3ρw1, 3ρw2, ρw0.
	VMULPD Y12, Y12, Y0
	VMULPD Y11, Y11, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y10, Y10, Y1
	VADDPD Y1, Y0, Y0
	VMULPD C1P5, Y0, Y0
	VMOVUPD ONE, Y14
	VSUBPD Y0, Y14, Y14
	VMULPD Y9, Y12, Y0
	VMULPD Y8, Y11, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y7, Y10, Y1
	VADDPD Y1, Y0, Y0
	VMULPD THREE, Y0, Y13
	VMOVAPD RHO, Y0
	VMULPD W1, Y0, Y1
	VMOVAPD Y1, RW1
	VMULPD THREE, Y1, Y1
	VMOVAPD Y1, RW1T
	VMULPD W2, Y0, Y1
	VMOVAPD Y1, RW2
	VMULPD THREE, Y1, Y1
	VMOVAPD Y1, RW2T
	VMULPD W0, Y0, Y1
	VMOVAPD Y1, RW0

	// Per call: 1/τ (Y15), pre = 1 − 0.5/τ, pre w1, pre w2, their
	// triples, (−pre) w0.
	VMOVSD ONE, X0
	VDIVSD tau+40(FP), X0, X0
	VBROADCASTSD X0, Y15
	VMULSD HALF, X0, X1
	VMOVSD ONE, X2
	VSUBSD X1, X2, X2
	VMULSD W1, X2, X3
	VBROADCASTSD X3, Y4
	VMOVAPD Y4, PW1
	VMULSD THREE, X3, X3
	VBROADCASTSD X3, Y4
	VMOVAPD Y4, PW1T
	VMULSD W2, X2, X3
	VBROADCASTSD X3, Y4
	VMOVAPD Y4, PW2
	VMULSD THREE, X3, X3
	VBROADCASTSD X3, Y4
	VMOVAPD Y4, PW2T
	VMOVSD SIGN, X3
	VXORPD X2, X3, X3
	VMULSD W0, X3, X3
	VBROADCASTSD X3, Y4
	VMOVAPD Y4, NW0

	// The rest value: relax(g0, 1/τ, (ρw0)c, ((−pre)w0)uf3).
	VMULPD RW0, Y14, Y0
	VMULPD NW0, Y13, Y1
	VMOVAPD 0(R13), Y2
	VSUBPD Y2, Y0, Y0
	VMULPD Y0, Y15, Y0
	VADDPD Y1, Y0, Y0
	VADDPD Y0, Y2, Y2
	VMOVAPD Y2, 0(R13)

	// The nine pairs, in kernel.go's order.
	PAIR(Y12, Y9, RW1, RW1T, PW1, PW1T, 32, 64)
	PAIR(Y11, Y8, RW1, RW1T, PW1, PW1T, 96, 128)
	PAIR(Y10, Y7, RW1, RW1T, PW1, PW1T, 160, 192)
	VADDPD Y11, Y12, Y0
	VADDPD Y8, Y9, Y1
	PAIR(Y0, Y1, RW2, RW2T, PW2, PW2T, 224, 256)
	VSUBPD Y11, Y12, Y0
	VSUBPD Y8, Y9, Y1
	PAIR(Y0, Y1, RW2, RW2T, PW2, PW2T, 288, 320)
	VADDPD Y10, Y12, Y0
	VADDPD Y7, Y9, Y1
	PAIR(Y0, Y1, RW2, RW2T, PW2, PW2T, 352, 384)
	VSUBPD Y10, Y12, Y0
	VSUBPD Y7, Y9, Y1
	PAIR(Y0, Y1, RW2, RW2T, PW2, PW2T, 416, 448)
	VADDPD Y10, Y11, Y0
	VADDPD Y7, Y8, Y1
	PAIR(Y0, Y1, RW2, RW2T, PW2, PW2T, 480, 512)
	VSUBPD Y10, Y11, Y0
	VSUBPD Y7, Y8, Y1
	PAIR(Y0, Y1, RW2, RW2T, PW2, PW2T, 544, 576)

	// Lane k stores to node k if k < n, else to the frame.
	LEAQ TRASH, DX
	MOVQ SI, R10
	CMPQ CX, $1
	CMOVQLE DX, R10
	MOVQ R8, R11
	CMPQ CX, $2
	CMOVQLE DX, R11
	MOVQ R9, R12
	CMPQ CX, $3
	CMOVQLE DX, R12

	TESTQ AX, AX
	JNZ traded
	STORE4(0, 16, 0, 32, 64, 96)
	STORE4(32, 48, 128, 160, 192, 224)
	STORE4(64, 80, 256, 288, 320, 352)
	STORE4(96, 112, 384, 416, 448, 480)
	STORE3(512, 544, 576)
	VZEROUPPER
	RET

traded:
	// Slot s takes d at Opposite[s].
	STORE4(0, 16, 0, 64, 32, 128)
	STORE4(32, 48, 96, 192, 160, 256)
	STORE4(64, 80, 224, 320, 288, 384)
	STORE4(96, 112, 352, 448, 416, 512)
	STORE3(480, 576, 544)
	VZEROUPPER
	RET
