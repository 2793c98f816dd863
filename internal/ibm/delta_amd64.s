#include "textflag.h"

// The AVX2 body of Stencil.Compute (delta.go). The four weights of an
// axis are the lanes of one vector. Lane i holds a = |x − float64(base+i)|,
// with base = int(floor(x)) − 1 as the Go body forms it, and evaluates
// phi4 operation for operation as phi4 writes it, with no fused
// multiply-add, so each lane rounds where the Go body rounds:
//
//	inner, a ≤ 1       (3 − 2a + √((1 + 4a) − (4a)a)) / 8
//	outer, 1 < a ≤ 2   (5 − 2a − √((−7 + 12a) − (4a)a)) / 8
//
// One VSQRTPD serves the four lanes of an axis. 2a is a + a and /8 is
// ·0.125, both exact, as the Go compiler emits them.
//
// It serves positions whose three coordinates are below 2⁵² in
// magnitude and reports false for any other (NaN, ±∞, huge, where a base
// may saturate or wrap), having written part of the stencil; Compute
// then runs the Go body, which writes all of it.

DATA kd<>+0(SB)/8, $0x7fffffffffffffff // |·| mask
DATA kd<>+8(SB)/8, $0x7fffffffffffffff
DATA kd<>+16(SB)/8, $0x7fffffffffffffff
DATA kd<>+24(SB)/8, $0x7fffffffffffffff
DATA kd<>+32(SB)/8, $0x4010000000000000 // 4
DATA kd<>+40(SB)/8, $0x4010000000000000
DATA kd<>+48(SB)/8, $0x4010000000000000
DATA kd<>+56(SB)/8, $0x4010000000000000
DATA kd<>+64(SB)/8, $0x3fc0000000000000 // 0.125
DATA kd<>+72(SB)/8, $0x3fc0000000000000
DATA kd<>+80(SB)/8, $0x3fc0000000000000
DATA kd<>+88(SB)/8, $0x3fc0000000000000
DATA kd<>+96(SB)/8, $0xbff0000000000000 // −1, 0, 1, 2
DATA kd<>+104(SB)/8, $0x0000000000000000
DATA kd<>+112(SB)/8, $0x3ff0000000000000
DATA kd<>+120(SB)/8, $0x4000000000000000
DATA kd<>+128(SB)/8, $0xc01c000000000000 // −7, 1, 1, −7
DATA kd<>+136(SB)/8, $0x3ff0000000000000
DATA kd<>+144(SB)/8, $0x3ff0000000000000
DATA kd<>+152(SB)/8, $0xc01c000000000000
DATA kd<>+160(SB)/8, $0x4028000000000000 // 12, 4, 4, 12
DATA kd<>+168(SB)/8, $0x4010000000000000
DATA kd<>+176(SB)/8, $0x4010000000000000
DATA kd<>+184(SB)/8, $0x4028000000000000
DATA kd<>+192(SB)/8, $0x4014000000000000 // 5, 3, 3, 5
DATA kd<>+200(SB)/8, $0x4008000000000000
DATA kd<>+208(SB)/8, $0x4008000000000000
DATA kd<>+216(SB)/8, $0x4014000000000000
DATA kd<>+224(SB)/8, $0x8000000000000000 // −, +, +, − (sign bits)
DATA kd<>+232(SB)/8, $0x0000000000000000
DATA kd<>+240(SB)/8, $0x0000000000000000
DATA kd<>+248(SB)/8, $0x8000000000000000
DATA kd<>+256(SB)/8, $0x4330000000000000 // 2⁵² (one lane)
GLOBL kd<>(SB), RODATA|NOPTR, $264

#define ABSMASK kd<>+0(SB)
#define FOUR kd<>+32(SB)
#define EIGHTH kd<>+64(SB)
#define OFFSETS kd<>+96(SB)
#define LANEC0 kd<>+128(SB)
#define LANEC1 kd<>+160(SB)
#define LANEC2 kd<>+192(SB)
#define LANESIGN kd<>+224(SB)
#define TWO52 kd<>+256(SB)

// FASTAXIS computes one axis of the stencil for the coordinate at memory
// operand x, base and weights at base(DI) and w(DI), where |x| < 2⁵²,
// and jumps to outside for any other x (an ordered compare: a NaN
// jumps). Below 2⁵² floor(x) and every base+i are integers a float64
// holds exactly, so float64(base+i) is floor(x) + (i − 1), computed
// exactly in the lanes, with no conversion.
// And there the branch of each lane is fixed: lanes 1 and 2 hold
// a = f and (1 − f) rounded, f = x − floor(x) in [0, 1), so a ≤ 1 and
// phi4 takes the inner branch; lanes 0 and 3 hold 1 + f and 2 − f
// rounded, in [1, 2], the outer branch. At a = 1 exactly, where phi4
// takes the inner branch, both branches give 0.25 operation for
// operation, so lanes 0 and 3 run the outer one unconditionally: the
// lane constants (−7, 1, 1, −7), (12, 4, 4, 12) and (5, 3, 3, 5) and a
// sign flip of the root in lanes 0 and 3 make each lane its branch's
// expression, (c0 + c1·a) − (4a)a under the root and (c2 − 2a) ± root
// outside it.
#define FASTAXIS(x, base, w) \
	VBROADCASTSD x, Y0; \
	VANDPD ABSMASK, X0, X1; \
	VUCOMISD TWO52, X1; \
	JPS outside; \
	JCC outside; \
	VROUNDPD $1, Y0, Y2; \
	VCVTTSD2SIQ X2, AX; \
	DECQ AX; \
	MOVQ AX, base(DI); \
	VADDPD OFFSETS, Y2, Y2; \
	VSUBPD Y2, Y0, Y0; \
	VANDPD ABSMASK, Y0, Y0; \
	VMULPD FOUR, Y0, Y1; \
	VMULPD Y0, Y1, Y1; \
	VMULPD LANEC1, Y0, Y2; \
	VADDPD LANEC0, Y2, Y2; \
	VSUBPD Y1, Y2, Y2; \
	VSQRTPD Y2, Y2; \
	VXORPD LANESIGN, Y2, Y2; \
	VADDPD Y0, Y0, Y1; \
	VMOVUPD LANEC2, Y3; \
	VSUBPD Y1, Y3, Y3; \
	VADDPD Y2, Y3, Y3; \
	VMULPD EIGHTH, Y3, Y3; \
	VMOVUPD Y3, w(DI)

// func computeAVX2(s *Stencil, x0, x1, x2 float64) (ok bool)
TEXT ·computeAVX2(SB), NOSPLIT, $0-33
	MOVQ s+0(FP), DI
	FASTAXIS(x0+8(FP), 0, 24)
	FASTAXIS(x1+16(FP), 8, 56)
	FASTAXIS(x2+24(FP), 16, 88)
	VZEROUPPER
	MOVB $1, ok+32(FP)
	RET

outside:
	VZEROUPPER
	MOVB $0, ok+32(FP)
	RET
