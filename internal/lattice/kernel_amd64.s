#include "textflag.h"

// The AVX2 bodies of the node kernel on float64 storage (kernel.go,
// group.go): Collide or FoldCollide (collideAVX2) and Moments
// (momentsAVX2) of four nodes per call, one node per lane. The two
// share the loads, the lane and record setup and the records' force
// (the macros below). Every lane runs kernel.go's expression tree,
// operation for operation: the same products, sums and differences in the same
// order, with no fused multiply-add (it rounds once where the tree
// rounds twice) and no reassociation, so each lane rounds exactly where
// the Go kernel rounds and the result is its bits.
//
// The populations live direction-major (group.go): value q of the node
// at entry e at q·S + e, S the array's stride. Lane k is the node at entry i+k, and it loads
// its value q from i+k+Load[k][q] and stores it to i+k+Store[k][q]
// (lattice.Group's tables, float64 offsets scaled by 8 in the
// addressing). When the four lanes share one table, direction q of the
// four nodes is four consecutive float64 from the table's offset on, so
// it is one 32-byte load and one 32-byte store; otherwise each lane
// loads and stores its own 8 bytes through its own table. A short group
// of n < 4 nodes — a row's tail — goes lane by lane: lanes 0 … n−1 load
// through their own tables, every lane from n on loads lane 0's values
// (it computes, and is never stored), and the stores take lanes 0 … n−1
// alone. Either way every lane's 19 values are loaded into the
// frame, d_q at 32q, before anything is stored, and every access is a
// slot of one of the group's nodes, so nothing outside the array is read
// or written. The records of the lanes, consecutive, are transposed on
// the way in, a lane from n on taking lane 0's: Vel and Rho as two
// 16-byte loads per node, Force from offsets 24 and 40, so that no load
// passes the last record's 56 bytes.
//
// The per-call scalars — 1/τ, 1 − 1/2τ and its multiples by the
// weights, and with a given force the force — are formed once and
// broadcast, the per-node ones (c = 1 − 1.5u², 3u·f, ρw) once per
// group, and each of the nine opposite pairs is then one pass of
// pairTerms and relax over four nodes.

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
// (1 − 1/2τ)w1, (1 − 1/2τ)w2, their triples and (−(1 − 1/2τ))w0; and
// the densities.
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

// Registers held across the body: DI the group's first entry; R8, R9,
// R11, R12 the tables of lanes 0–3 (load, then store; a uniform group
// uses R8 alone); AX, BX, CX, SI the offsets a direction takes. The
// per-lane loads keep the lanes' entries in DI, CX, SI and R10 and
// their offsets in AX and BX; between the loads and the stores R10, R8,
// R9 and R11 point at the records of lanes 0–3. Y12, Y11, Y10 hold ux,
// uy, uz, Y9, Y8, Y7 fx, fy, fz, Y14 c, Y13 3u·f and Y15 1/τ while the
// pairs run; Y0–Y6 are scratch.

// TABLES points R8, R9, R11, R12 at the four lanes' tables of the
// lattice.Group half at o(DX).
#define TABLES(o) \
	MOVQ o(DX), R8; \
	MOVQ o+8(DX), R9; \
	MOVQ o+16(DX), R11; \
	MOVQ o+24(DX), R12

// LOADV loads direction q (o8 = 8q) of the four nodes through the
// shared table into d at frame offset f = 32q.
#define LOADV(o8, f) \
	MOVQ o8(R8), AX; \
	VMOVUPD (DI)(AX*8), Y0; \
	VMOVAPD Y0, f(R13)

// LOADL loads value q (o8 = 8q) of each lane, through its table (R8,
// R9, R11, R12) from its entry (DI, CX, SI, R10), into d at frame
// offset f = 32q.
#define LOADL(o8, f) \
	MOVQ o8(R8), AX; \
	MOVQ o8(R9), BX; \
	VMOVSD (DI)(AX*8), X0; \
	VMOVHPD (CX)(BX*8), X0, X0; \
	MOVQ o8(R11), AX; \
	MOVQ o8(R12), BX; \
	VMOVSD (SI)(AX*8), X1; \
	VMOVHPD (R10)(BX*8), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0; \
	VMOVAPD Y0, f(R13)

// LOADALLV and LOADALLL load the 19 values of the group into the frame,
// d_q at 32q: through the shared table (LOADV), or through each lane's
// own (LOADL, after LANES).
#define LOADALLV \
	LOADV(0, 0); LOADV(8, 32); LOADV(16, 64); LOADV(24, 96); LOADV(32, 128); \
	LOADV(40, 160); LOADV(48, 192); LOADV(56, 224); LOADV(64, 256); LOADV(72, 288); \
	LOADV(80, 320); LOADV(88, 352); LOADV(96, 384); LOADV(104, 416); LOADV(112, 448); \
	LOADV(120, 480); LOADV(128, 512); LOADV(136, 544); LOADV(144, 576)

#define LOADALLL \
	LOADL(0, 0); LOADL(8, 32); LOADL(16, 64); LOADL(24, 96); LOADL(32, 128); \
	LOADL(40, 160); LOADL(48, 192); LOADL(56, 224); LOADL(64, 256); LOADL(72, 288); \
	LOADL(80, 320); LOADL(88, 352); LOADL(96, 384); LOADL(104, 416); LOADL(112, 448); \
	LOADL(120, 480); LOADL(128, 512); LOADL(136, 544); LOADL(144, 576)

// LANES sets up LOADL for the n (AX) lanes of the group at DX whose lane
// 0 loads through R8 from DI: lane k through its own table (R9, R11,
// R12) from its own entry (CX, SI, R10), and a lane from n on through
// lane 0's from lane 0's.
#define LANES \
	MOVQ R8, R9; MOVQ R8, R11; MOVQ R8, R12; \
	MOVQ DI, CX; MOVQ DI, SI; MOVQ DI, R10; \
	LEAQ 8(DI), BX; CMPQ AX, $2; CMOVQGE 8(DX), R9; CMOVQGE BX, CX; \
	LEAQ 16(DI), BX; CMPQ AX, $3; CMOVQGE 16(DX), R11; CMOVQGE BX, SI; \
	LEAQ 24(DI), BX; CMPQ AX, $4; CMOVQGE 24(DX), R12; CMOVQGE BX, R10

// RECORDS points R10, R8, R9, R11 at the records of lanes 0–3, the n
// (AX) consecutive records from the argument r on; a lane from n on
// takes lane 0's.
#define RECORDS \
	MOVQ r+32(FP), R10; MOVQ R10, R8; MOVQ R10, R9; MOVQ R10, R11; \
	LEAQ 56(R10), BX; CMPQ AX, $2; CMOVQGE BX, R8; \
	LEAQ 112(R10), BX; CMPQ AX, $3; CMOVQGE BX, R9; \
	LEAQ 168(R10), BX; CMPQ AX, $4; CMOVQGE BX, R11

// FORCES transposes the force of the records at R10, R8, R9, R11 into
// Y9, Y8, Y7 (fx, fy, fz), from offsets 24 and 40 so that no load
// passes a record's 56 bytes; Y0–Y3 are scratch.
#define FORCES \
	VMOVUPD 24(R10), X0; \
	VINSERTF128 $1, 24(R9), Y0, Y0; \
	VMOVUPD 24(R8), X1; \
	VINSERTF128 $1, 24(R11), Y1, Y1; \
	VMOVUPD 40(R10), X2; \
	VINSERTF128 $1, 40(R9), Y2, Y2; \
	VMOVUPD 40(R8), X3; \
	VINSERTF128 $1, 40(R11), Y3, Y3; \
	VUNPCKHPD Y1, Y0, Y9; \
	VUNPCKLPD Y3, Y2, Y8; \
	VUNPCKHPD Y3, Y2, Y7

// STOREV stores d at frame offset f = 32q as value q (o8 = 8q) of the
// four nodes through the shared table: the inverse of LOADV.
#define STOREV(o8, f) \
	MOVQ o8(R8), AX; \
	VMOVAPD f(R13), Y0; \
	VMOVUPD Y0, (DI)(AX*8)

// STOREL stores d at frame offset f = 32q as value q (o8 = 8q) of each
// lane through its own table: the inverse of LOADL.
#define STOREL(o8, f) \
	MOVQ o8(R8), AX; \
	MOVQ o8(R9), BX; \
	MOVQ o8(R11), CX; \
	MOVQ o8(R12), SI; \
	VMOVAPD f(R13), Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VMOVSD X0, (DI)(AX*8); \
	VMOVHPD X0, 8(DI)(BX*8); \
	VMOVSD X1, 16(DI)(CX*8); \
	VMOVHPD X1, 24(DI)(SI*8)

// STORE3, STORE2 and STORE1 store d at frame offset f = 32q as value q
// (o8 = 8q) of lanes 0–2, 0–1 and 0 alone, each through its own table:
// a short group's STOREL, which leaves the lanes from n on unstored.
#define STORE3(o8, f) \
	MOVQ o8(R8), AX; \
	MOVQ o8(R9), BX; \
	MOVQ o8(R11), CX; \
	VMOVAPD f(R13), Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VMOVSD X0, (DI)(AX*8); \
	VMOVHPD X0, 8(DI)(BX*8); \
	VMOVSD X1, 16(DI)(CX*8)

#define STORE2(o8, f) \
	MOVQ o8(R8), AX; \
	MOVQ o8(R9), BX; \
	VMOVAPD f(R13), X0; \
	VMOVSD X0, (DI)(AX*8); \
	VMOVHPD X0, 8(DI)(BX*8)

#define STORE1(o8, f) \
	MOVQ o8(R8), AX; \
	VMOVSD f(R13), X0; \
	VMOVSD X0, (DI)(AX*8)

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

// func collideAVX2(f *float64, grp *Group, n int, uniform bool, r *Record, fold, force *[3]float64, tau float64, out *[Lanes]State)
TEXT ·collideAVX2(SB), 0, $1024-72
	LEAQ 31(SP), R13
	ANDQ $-32, R13
	MOVQ f+0(FP), DI
	MOVQ grp+8(FP), DX
	MOVQ 0(DX), R8
	MOVBQZX uniform+24(FP), AX
	TESTQ AX, AX
	JZ loadlanes
	LOADALLV
	JMP loaded

loadlanes:
	// Lane k loads through its own table from its own entry, and a lane
	// from n on through lane 0's from lane 0's.
	MOVQ n+16(FP), AX
	LANES
	LOADALLL

loaded:
	// The lanes' records from R10, R8, R9, R11; a lane from n on takes
	// lane 0's.
	MOVQ n+16(FP), AX
	RECORDS

	MOVQ fold+40(FP), DX
	TESTQ DX, DX
	JNZ folded

	// The records' velocity (Y12, Y11, Y10) and density.
	VMOVUPD 0(R10), X0
	VINSERTF128 $1, 0(R9), Y0, Y0
	VMOVUPD 0(R8), X1
	VINSERTF128 $1, 0(R11), Y1, Y1
	VMOVUPD 16(R10), X2
	VINSERTF128 $1, 16(R9), Y2, Y2
	VMOVUPD 16(R8), X3
	VINSERTF128 $1, 16(R11), Y3, Y3
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
	MOVQ force+48(FP), DX
	TESTQ DX, DX
	JNZ given

	// The records' force (Y9, Y8, Y7).
	FORCES
	JMP outputs

given:
	VBROADCASTSD 0(DX), Y9
	VBROADCASTSD 8(DX), Y8
	VBROADCASTSD 16(DX), Y7

outputs:
	// What each lane collides with, as out[k] = {u, ρ}.
	MOVQ out+64(FP), DX
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
	VDIVSD tau+56(FP), X0, X0
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

	// Each value through its store table.
	MOVQ grp+8(FP), DX
	TABLES(32)
	MOVQ n+16(FP), CX
	CMPQ CX, $4
	JLT storeshort
	MOVBQZX uniform+24(FP), AX
	TESTQ AX, AX
	JZ storelanes
	STOREV(0, 0)
	STOREV(8, 32)
	STOREV(16, 64)
	STOREV(24, 96)
	STOREV(32, 128)
	STOREV(40, 160)
	STOREV(48, 192)
	STOREV(56, 224)
	STOREV(64, 256)
	STOREV(72, 288)
	STOREV(80, 320)
	STOREV(88, 352)
	STOREV(96, 384)
	STOREV(104, 416)
	STOREV(112, 448)
	STOREV(120, 480)
	STOREV(128, 512)
	STOREV(136, 544)
	STOREV(144, 576)
	VZEROUPPER
	RET

storelanes:
	STOREL(0, 0)
	STOREL(8, 32)
	STOREL(16, 64)
	STOREL(24, 96)
	STOREL(32, 128)
	STOREL(40, 160)
	STOREL(48, 192)
	STOREL(56, 224)
	STOREL(64, 256)
	STOREL(72, 288)
	STOREL(80, 320)
	STOREL(88, 352)
	STOREL(96, 384)
	STOREL(104, 416)
	STOREL(112, 448)
	STOREL(120, 480)
	STOREL(128, 512)
	STOREL(136, 544)
	STOREL(144, 576)
	VZEROUPPER
	RET

storeshort:
	CMPQ CX, $2
	JLT store1
	JEQ store2
	STORE3(0, 0)
	STORE3(8, 32)
	STORE3(16, 64)
	STORE3(24, 96)
	STORE3(32, 128)
	STORE3(40, 160)
	STORE3(48, 192)
	STORE3(56, 224)
	STORE3(64, 256)
	STORE3(72, 288)
	STORE3(80, 320)
	STORE3(88, 352)
	STORE3(96, 384)
	STORE3(104, 416)
	STORE3(112, 448)
	STORE3(120, 480)
	STORE3(128, 512)
	STORE3(136, 544)
	STORE3(144, 576)
	VZEROUPPER
	RET

store2:
	STORE2(0, 0)
	STORE2(8, 32)
	STORE2(16, 64)
	STORE2(24, 96)
	STORE2(32, 128)
	STORE2(40, 160)
	STORE2(48, 192)
	STORE2(56, 224)
	STORE2(64, 256)
	STORE2(72, 288)
	STORE2(80, 320)
	STORE2(88, 352)
	STORE2(96, 384)
	STORE2(104, 416)
	STORE2(112, 448)
	STORE2(120, 480)
	STORE2(128, 512)
	STORE2(136, 544)
	STORE2(144, 576)
	VZEROUPPER
	RET

store1:
	STORE1(0, 0)
	STORE1(8, 32)
	STORE1(16, 64)
	STORE1(24, 96)
	STORE1(32, 128)
	STORE1(40, 160)
	STORE1(48, 192)
	STORE1(56, 224)
	STORE1(64, 256)
	STORE1(72, 288)
	STORE1(80, 320)
	STORE1(88, 352)
	STORE1(96, 384)
	STORE1(104, 416)
	STORE1(112, 448)
	STORE1(120, 480)
	STORE1(128, 512)
	STORE1(136, 544)
	STORE1(144, 576)
	VZEROUPPER
	RET

// func momentsAVX2(f *float64, grp *Group, n int, uniform bool, r *Record, reset *[3]float64)
//
// Moments of four nodes, one per lane, loaded as the collision loads
// them and summed as the fold sums them, under each lane's own force:
// the pair sums into ρ in Moments' order, g0 + ((sx + sy) + sz) + (sxy
// + sxny) + (sxz + sxnz) + (syz + synz); the pair differences and half
// the force into the momentum. The records' u and ρ, their first 32
// bytes, go out as one vector per lane, lanes 0 … n−1 alone.
TEXT ·momentsAVX2(SB), 0, $640-48
	LEAQ 31(SP), R13
	ANDQ $-32, R13
	MOVQ f+0(FP), DI
	MOVQ grp+8(FP), DX
	MOVQ 0(DX), R8
	MOVQ n+16(FP), AX
	MOVBQZX uniform+24(FP), BX
	TESTQ BX, BX
	JZ loadlanes
	LOADALLV
	JMP loaded

loadlanes:
	LANES
	LOADALLL

loaded:
	MOVQ n+16(FP), AX
	RECORDS
	FORCES

	// Half each lane's force (Y11, Y12, Y13).
	VMULPD HALF, Y9, Y11
	VMULPD HALF, Y8, Y12
	VMULPD HALF, Y7, Y13

	// ρ (Y1) and the pair differences (Y2–Y10).
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
	// branch: its lanes get ρ = u = +0. NaN is unordered and divides.
	VXORPD Y0, Y0, Y0
	VCMPPD $0, Y0, Y1, Y14

	// u0 = (dx + (dxy + dxny) + (dxz + dxnz) + 0.5 fx) / ρ
	VADDPD Y6, Y5, Y0
	VADDPD Y0, Y2, Y0
	VADDPD Y8, Y7, Y2
	VADDPD Y2, Y0, Y0
	VADDPD Y11, Y0, Y0
	VMULPD Y15, Y0, Y11

	// u1 = (dy + (dxy − dxny) + (dyz + dynz) + 0.5 fy) / ρ
	VSUBPD Y6, Y5, Y0
	VADDPD Y0, Y3, Y0
	VADDPD Y10, Y9, Y2
	VADDPD Y2, Y0, Y0
	VADDPD Y12, Y0, Y0
	VMULPD Y15, Y0, Y12

	// u2 = (dz + (dxz − dxnz) + (dyz − dynz) + 0.5 fz) / ρ
	VSUBPD Y8, Y7, Y0
	VADDPD Y0, Y4, Y0
	VSUBPD Y10, Y9, Y2
	VADDPD Y2, Y0, Y0
	VADDPD Y13, Y0, Y0
	VMULPD Y15, Y0, Y13

	VANDNPD Y1, Y14, Y1
	VANDNPD Y11, Y14, Y11
	VANDNPD Y12, Y14, Y12
	VANDNPD Y13, Y14, Y13

	// {u, ρ} of lane k is lane k's first 32 bytes: the 4×4 transpose
	// of (u0, u1, u2, ρ), one row per lane into Y5 as it is stored.
	VUNPCKLPD Y12, Y11, Y0 // u0, u1 of lanes 0 and 2
	VUNPCKHPD Y12, Y11, Y2 // of lanes 1 and 3
	VUNPCKLPD Y1, Y13, Y3  // u2, ρ of lanes 0 and 2
	VUNPCKHPD Y1, Y13, Y4  // of lanes 1 and 3
	MOVQ reset+40(FP), DX
	TESTQ DX, DX
	JZ noreset
	VMOVUPD 0(DX), X6
	VMOVSD 16(DX), X7

noreset:
	VPERM2F128 $0x20, Y3, Y0, Y5
	VMOVUPD Y5, 0(R10)
	CMPQ AX, $2
	JLT stored
	VPERM2F128 $0x20, Y4, Y2, Y5
	VMOVUPD Y5, 0(R8)
	CMPQ AX, $3
	JLT stored
	VPERM2F128 $0x31, Y3, Y0, Y5
	VMOVUPD Y5, 0(R9)
	CMPQ AX, $4
	JLT stored
	VPERM2F128 $0x31, Y4, Y2, Y5
	VMOVUPD Y5, 0(R11)

stored:
	// With a reset, each of the n records' force takes it.
	TESTQ DX, DX
	JZ done
	VMOVUPD X6, 32(R10)
	VMOVSD X7, 48(R10)
	CMPQ AX, $2
	JLT done
	VMOVUPD X6, 32(R8)
	VMOVSD X7, 48(R8)
	CMPQ AX, $3
	JLT done
	VMOVUPD X6, 32(R9)
	VMOVSD X7, 48(R9)
	CMPQ AX, $4
	JLT done
	VMOVUPD X6, 32(R11)
	VMOVSD X7, 48(R11)

done:
	VZEROUPPER
	RET
