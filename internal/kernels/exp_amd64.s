#include "textflag.h"

// The vector exp: four float64 lanes through math.Exp's amd64 FMA branch
// ($GOROOT/src/math/exp_amd64.s, label avxfma), Shibata's SIMD-oriented
// method (ISC'10), operation for operation with the same constants:
//
//   k = round(x·LOG2E)              VMULPD, VCVTPD2DQ, VCVTDQ2PD
//   r = (x − k·LN2U) − k·LN2L       two VFNMADD231PD, each one rounding
//   r = r·0.0625
//   p = Horner over P8..P3, 0.5, 1  seven VFMADD213PD
//   r = r·p
//   r = r·(r+2), three times        VADDPD, VMULPD
//   r = r·(r+2) + 1                 VADDPD, VFMADD213PD
//   exp = r · 2^k                   (k+0x3FF)<<52 as the float64 2^k
//
// Every step is a per-lane IEEE operation rounded as the scalar one is,
// so each lane is math.Exp's result bit for bit — on a CPU where math.Exp
// takes that branch, which vecExp's self-check confirms. The body only
// takes lanes in [−708, 709]: there k+0x3FF lies in [2, 2046], so none
// of archExp's not-finite, overflow or denormal branches is reached. A
// group of four with a lane outside that range, or a NaN lane, stops the
// loop and is left to the caller's scalar math.Exp.
//
// Each TEXT block loads its own arguments, so that go vet checks the
// frame against the Go declaration (exp_amd64.go). AX counts the
// elements done, CX is len(x); Y0 holds the four lanes, EXP4 uses Y1,
// Y2 and X2, INRANGE Y3, Y4 and DX. VZEROUPPER precedes every RET.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// expconst holds each constant four times, one 32-byte vector each.
#define C_LOG2E 0
#define C_LN2U 32
#define C_LN2L 64
#define C_RED 96
#define C_P8 128
#define C_P7 160
#define C_P6 192
#define C_P5 224
#define C_P4 256
#define C_P3 288
#define C_HALF 320
#define C_ONE 352
#define C_TWO 384
#define C_LO 416
#define C_HI 448
#define C_SIGN 480
#define C_BIAS 512

#define D4(off, v) \
	DATA expconst<>+(off)(SB)/8, v; \
	DATA expconst<>+(off+8)(SB)/8, v; \
	DATA expconst<>+(off+16)(SB)/8, v; \
	DATA expconst<>+(off+24)(SB)/8, v

D4(C_LOG2E, $LOG2E)
D4(C_LN2U, $LN2U)
D4(C_LN2L, $LN2L)
D4(C_RED, $0.0625)
D4(C_P8, $2.4801587301587301587e-5)
D4(C_P7, $1.9841269841269841270e-4)
D4(C_P6, $1.3888888888888888889e-3)
D4(C_P5, $8.3333333333333333333e-3)
D4(C_P4, $4.1666666666666666667e-2)
D4(C_P3, $1.6666666666666666667e-1)
D4(C_HALF, $0.5)
D4(C_ONE, $1.0)
D4(C_TWO, $2.0)
D4(C_LO, $-708.0)
D4(C_HI, $709.0)
D4(C_SIGN, $0x8000000000000000)
DATA expconst<>+(C_BIAS)(SB)/4, $0x3FF
DATA expconst<>+(C_BIAS+4)(SB)/4, $0x3FF
DATA expconst<>+(C_BIAS+8)(SB)/4, $0x3FF
DATA expconst<>+(C_BIAS+12)(SB)/4, $0x3FF
GLOBL expconst<>(SB), RODATA|NOPTR, $528

// INRANGE(out) jumps to out unless every lane of Y0 is ordered and in
// [−708, 709]: the _OQ compares are false on NaN.
#define INRANGE(out) \
	VCMPPD $0x1D, expconst<>+C_LO(SB), Y0, Y3; \
	VCMPPD $0x12, expconst<>+C_HI(SB), Y0, Y4; \
	VANDPD Y3, Y4, Y3; \
	VMOVMSKPD Y3, DX; \
	CMPL DX, $15; \
	JNE out

// EXP4: Y0 = exp(Y0). In Go operand order VFNMADD231PD m, Y1, Y0 is
// Y0 = Y0 − Y1·m and VFMADD213PD m, Y0, Y1 is Y1 = Y0·Y1 + m, each with
// one rounding, as archExp's scalar forms.
#define EXP4 \
	VMULPD expconst<>+C_LOG2E(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1; \
	VFNMADD231PD expconst<>+C_LN2U(SB), Y1, Y0; \
	VFNMADD231PD expconst<>+C_LN2L(SB), Y1, Y0; \
	VMULPD expconst<>+C_RED(SB), Y0, Y0; \
	VMOVUPD expconst<>+C_P8(SB), Y1; \
	VFMADD213PD expconst<>+C_P7(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C_P6(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C_P5(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C_P4(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C_P3(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C_HALF(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C_ONE(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expconst<>+C_TWO(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expconst<>+C_TWO(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expconst<>+C_TWO(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expconst<>+C_TWO(SB), Y0, Y1; \
	VFMADD213PD expconst<>+C_ONE(SB), Y1, Y0; \
	VPADDD expconst<>+C_BIAS(SB), X2, X2; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0

// func expAVX(dst, x []float64) int
TEXT ·expAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE done
	VMOVUPD (SI)(AX*8), Y0
	INRANGE(done)
	EXP4
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP loop

done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func expRowAVX(dst, row []float32, maxV float32, sum float64) (n int, s float64)
//
// Per group: X0 = v − maxV in float32 (VSUBPS), widened exactly to Y0;
// float32(e) is stored (VCVTPD2PSY rounds to nearest, as the Go
// conversion does); then the four float64 exps are added to the sum in
// X6 one at a time, lane 0 to lane 3.
TEXT ·expRowAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), CX
	VBROADCASTSS maxV+48(FP), X5
	VMOVSD sum+56(FP), X6
	XORQ AX, AX

rowloop:
	CMPQ AX, CX
	JGE rowdone
	VMOVUPS (SI)(AX*4), X0
	VSUBPS X5, X0, X0
	VCVTPS2PD X0, Y0
	INRANGE(rowdone)
	EXP4
	VCVTPD2PSY Y0, X1
	VMOVUPS X1, (DI)(AX*4)
	VADDSD X0, X6, X6
	VPERMILPD $1, X0, X1
	VADDSD X1, X6, X6
	VEXTRACTF128 $1, Y0, X0
	VADDSD X0, X6, X6
	VPERMILPD $1, X0, X1
	VADDSD X1, X6, X6
	ADDQ $4, AX
	JMP rowloop

rowdone:
	MOVQ AX, n+64(FP)
	VMOVSD X6, s+72(FP)
	VZEROUPPER
	RET

// TRANSPOSE4 transposes the 4×4 float32 block in X8..X11 (one row
// each) in place, through X12..X15.
#define TRANSPOSE4 \
	VUNPCKLPS X9, X8, X12; \
	VUNPCKLPS X11, X10, X13; \
	VUNPCKHPS X9, X8, X14; \
	VUNPCKHPS X11, X10, X15; \
	VMOVLHPS X13, X12, X8; \
	VMOVHLPS X12, X13, X9; \
	VMOVLHPS X15, X14, X10; \
	VMOVHLPS X14, X15, X11

// EXP4X4: Y8..Y11 = exp(Y8..Y11), EXP4 on four lane groups at once,
// step by step, so that their dependency chains overlap. Group i works
// in Y8+i with Yi and Y12+i (X12+i) as EXP4 does in Y0 with Y1 and Y2.
#define X4(M) M(Y8, Y0, X12, Y12); M(Y9, Y1, X13, Y13); M(Y10, Y2, X14, Y14); M(Y11, Y3, X15, Y15)
#define X4C(M, c) M(c, Y8, Y0); M(c, Y9, Y1); M(c, Y10, Y2); M(c, Y11, Y3)
#define E_ROUND(x, t, kx, ky) VMULPD expconst<>+C_LOG2E(SB), x, t; VCVTPD2DQY t, kx; VCVTDQ2PD kx, t
#define E_REDUCE(x, t, kx, ky) VFNMADD231PD expconst<>+C_LN2U(SB), t, x; VFNMADD231PD expconst<>+C_LN2L(SB), t, x; VMULPD expconst<>+C_RED(SB), x, x; VMOVUPD expconst<>+C_P8(SB), t
#define E_HORNER(c, x, t) VFMADD213PD expconst<>+c(SB), x, t
#define E_MUL(x, t, kx, ky) VMULPD t, x, x
#define E_SQUARE(x, t, kx, ky) VADDPD expconst<>+C_TWO(SB), x, t; VMULPD t, x, x
#define E_LAST(x, t, kx, ky) VADDPD expconst<>+C_TWO(SB), x, t; VFMADD213PD expconst<>+C_ONE(SB), t, x
#define E_SCALE(x, t, kx, ky) VPADDD expconst<>+C_BIAS(SB), kx, kx; VPMOVZXDQ kx, ky; VPSLLQ $52, ky, ky; VMULPD ky, x, x
#define EXP4X4 \
	X4(E_ROUND); \
	X4(E_REDUCE); \
	X4C(E_HORNER, C_P7); \
	X4C(E_HORNER, C_P6); \
	X4C(E_HORNER, C_P5); \
	X4C(E_HORNER, C_P4); \
	X4C(E_HORNER, C_P3); \
	X4C(E_HORNER, C_HALF); \
	X4C(E_HORNER, C_ONE); \
	X4(E_MUL); \
	X4(E_SQUARE); \
	X4(E_SQUARE); \
	X4(E_SQUARE); \
	X4(E_LAST); \
	X4(E_SCALE)

// func expRows4AVX(dst, x []float32, stride, n int, maxV *[4]float32, sum *[4]float64) int
//
// expRowAVX for four rows at once, row r at x[r·stride:] with maximum
// maxV[r] and running sum sum[r], over columns [0, n), n a multiple of
// four. Each 4×4 block is loaded one row per register and transposed,
// so that lane r holds row r: the columns then go through the exp in
// ascending order, and lane r of Y6 adds row r's exps one at a time in
// that order — the scalar chain of each row, bit for bit, one VADDPD
// per column. The four columns' exps run interleaved (EXP4X4). A block
// with any argument outside [−708, 709] or NaN stops the loop before
// anything of it is written; the count of columns done is returned and
// sum holds the sums so far.
TEXT ·expRows4AVX(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ stride+48(FP), R8
	MOVQ n+56(FP), CX
	MOVQ maxV+64(FP), R9
	MOVQ sum+72(FP), R10
	VMOVUPS (R9), X5
	VMOVUPD (R10), Y6
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R11
	XORQ AX, AX

blockloop:
	CMPQ AX, CX
	JGE blockdone
	LEAQ (SI)(AX*4), DX
	VMOVUPS (DX), X8
	VMOVUPS (DX)(R8*1), X9
	VMOVUPS (DX)(R8*2), X10
	VMOVUPS (DX)(R11*1), X11
	TRANSPOSE4
	VSUBPS X5, X8, X8
	VSUBPS X5, X9, X9
	VSUBPS X5, X10, X10
	VSUBPS X5, X11, X11
	VCVTPS2PD X8, Y8
	VCVTPS2PD X9, Y9
	VCVTPS2PD X10, Y10
	VCVTPS2PD X11, Y11
	VCMPPD $0x1D, expconst<>+C_LO(SB), Y8, Y12
	VCMPPD $0x12, expconst<>+C_HI(SB), Y8, Y13
	VANDPD Y12, Y13, Y14
	VCMPPD $0x1D, expconst<>+C_LO(SB), Y9, Y12
	VCMPPD $0x12, expconst<>+C_HI(SB), Y9, Y13
	VANDPD Y12, Y14, Y14
	VANDPD Y13, Y14, Y14
	VCMPPD $0x1D, expconst<>+C_LO(SB), Y10, Y12
	VCMPPD $0x12, expconst<>+C_HI(SB), Y10, Y13
	VANDPD Y12, Y14, Y14
	VANDPD Y13, Y14, Y14
	VCMPPD $0x1D, expconst<>+C_LO(SB), Y11, Y12
	VCMPPD $0x12, expconst<>+C_HI(SB), Y11, Y13
	VANDPD Y12, Y14, Y14
	VANDPD Y13, Y14, Y14
	VMOVMSKPD Y14, BX
	CMPL BX, $15
	JNE blockdone
	EXP4X4
	VADDPD Y8, Y6, Y6
	VADDPD Y9, Y6, Y6
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y6, Y6
	VCVTPD2PSY Y8, X8
	VCVTPD2PSY Y9, X9
	VCVTPD2PSY Y10, X10
	VCVTPD2PSY Y11, X11
	TRANSPOSE4
	LEAQ (DI)(AX*4), DX
	VMOVUPS X8, (DX)
	VMOVUPS X9, (DX)(R8*1)
	VMOVUPS X10, (DX)(R8*2)
	VMOVUPS X11, (DX)(R11*1)
	ADDQ $4, AX
	JMP blockloop

blockdone:
	VMOVUPD Y6, (R10)
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

// SIGMOID4: X0 = float32(1/(1+exp(−float64(v)))) for the four float32
// lanes v of X8, with Y7 = 1.0 in every lane; jumps to out when a lane's
// −v is out of range. Negation flips the sign bit, as Go's does.
#define SIGMOID4(out) \
	VCVTPS2PD X8, Y0; \
	VXORPD expconst<>+C_SIGN(SB), Y0, Y0; \
	INRANGE(out); \
	EXP4; \
	VADDPD Y0, Y7, Y0; \
	VDIVPD Y0, Y7, Y0; \
	VCVTPD2PSY Y0, X0

// func sigmoidRowAVX(o, x []float32) int
TEXT ·sigmoidRowAVX(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VMOVUPD expconst<>+C_ONE(SB), Y7
	XORQ AX, AX

sigloop:
	CMPQ AX, CX
	JGE sigdone
	VMOVUPS (SI)(AX*4), X8
	SIGMOID4(sigdone)
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	JMP sigloop

sigdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func siluRowAVX(o, x []float32) int
//
// silu(v) = v · sigmoid(v), the product rounded once in float32.
TEXT ·siluRowAVX(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VMOVUPD expconst<>+C_ONE(SB), Y7
	XORQ AX, AX

siluloop:
	CMPQ AX, CX
	JGE siludone
	VMOVUPS (SI)(AX*4), X8
	SIGMOID4(siludone)
	VMULPS X8, X0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	JMP siluloop

siludone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// The eight-lane exp bodies (AVX-512F): EXP4's steps on ZMM registers,
// eight float64 lanes per step, operation for operation with the same
// constants, each memory operand an embedded broadcast (.BCST) of the
// first copy of its vector in expconst. The range check keeps EXP4's
// _OQ compares but writes an opmask (K1, K2): a group of eight with a
// lane outside [−708, 709] or NaN stops the loop and is left to the
// caller, which hands it to the four-lane bodies above. Only AVX-512F
// forms are used (the 512-bit sign flip is VPXORQ, since VXORPD on ZMM
// needs AVX512DQ; the 256-bit transposes and sums are VEX-encoded AVX),
// and only Z0–Z15, so the closing VZEROUPPER leaves no upper register
// state dirty.

// INRANGE8(out) jumps to out unless every lane of Z0 is ordered and in
// [−708, 709]; the second compare is masked by the first, so K1 is
// their AND.
#define INRANGE8(out) \
	VCMPPD.BCST $0x1D, expconst<>+C_LO(SB), Z0, K1; \
	VCMPPD.BCST $0x12, expconst<>+C_HI(SB), Z0, K1, K1; \
	KMOVW K1, DX; \
	CMPL DX, $0xFF; \
	JNE out

// The steps of EXP4 on ZMM registers, as EXP4X4's stages name them:
// x the lanes, t the temporary, kx the rounded k as eight int32s and ky
// the ZMM register that holds kx (and then 2^k). VCVTPD2DQ zeroes ky
// above kx, so the bias is added on all of ky (VPADDD.BCST, an
// AVX-512F form) and only kx's lanes are widened.
#define Z_ROUND(x, t, kx, ky) VMULPD.BCST expconst<>+C_LOG2E(SB), x, t; VCVTPD2DQ t, kx; VCVTDQ2PD kx, t
#define Z_REDUCE(x, t, kx, ky) VFNMADD231PD.BCST expconst<>+C_LN2U(SB), t, x; VFNMADD231PD.BCST expconst<>+C_LN2L(SB), t, x; VMULPD.BCST expconst<>+C_RED(SB), x, x; VBROADCASTSD expconst<>+C_P8(SB), t
#define Z_HORNER(c, x, t) VFMADD213PD.BCST expconst<>+c(SB), x, t
#define Z_MUL(x, t, kx, ky) VMULPD t, x, x
#define Z_SQUARE(x, t, kx, ky) VADDPD.BCST expconst<>+C_TWO(SB), x, t; VMULPD t, x, x
#define Z_LAST(x, t, kx, ky) VADDPD.BCST expconst<>+C_TWO(SB), x, t; VFMADD213PD.BCST expconst<>+C_ONE(SB), t, x
#define Z_SCALE(x, t, kx, ky) VPADDD.BCST expconst<>+C_BIAS(SB), ky, ky; VPMOVZXDQ kx, ky; VPSLLQ $52, ky, ky; VMULPD ky, x, x
#define EXP8STEPS(X, XC) \
	X(Z_ROUND); \
	X(Z_REDUCE); \
	XC(Z_HORNER, C_P7); \
	XC(Z_HORNER, C_P6); \
	XC(Z_HORNER, C_P5); \
	XC(Z_HORNER, C_P4); \
	XC(Z_HORNER, C_P3); \
	XC(Z_HORNER, C_HALF); \
	XC(Z_HORNER, C_ONE); \
	X(Z_MUL); \
	X(Z_SQUARE); \
	X(Z_SQUARE); \
	X(Z_SQUARE); \
	X(Z_LAST); \
	X(Z_SCALE)

// EXP8: Z0 = exp(Z0), with Z1 and Z2 (Y2) as EXP4 uses Y1 and Y2 (X2).
#define ONE8(M) M(Z0, Z1, Y2, Z2)
#define ONE8C(M, c) M(c, Z0, Z1)
#define EXP8 EXP8STEPS(ONE8, ONE8C)

// EXP8X4: Z8..Z11 = exp(Z8..Z11), as EXP4X4 interleaves EXP4: group i
// works in Z8+i with Zi and Z12+i (Y12+i).
#define FOUR8(M) M(Z8, Z0, Y12, Z12); M(Z9, Z1, Y13, Z13); M(Z10, Z2, Y14, Z14); M(Z11, Z3, Y15, Z15)
#define FOUR8C(M, c) M(c, Z8, Z0); M(c, Z9, Z1); M(c, Z10, Z2); M(c, Z11, Z3)
#define EXP8X4 EXP8STEPS(FOUR8, FOUR8C)

// func expAVX512(dst, x []float64) int
TEXT ·expAVX512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX

loop8:
	CMPQ AX, CX
	JGE done8
	VMOVUPD (SI)(AX*8), Z0
	INRANGE8(done8)
	EXP8
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ $8, AX
	JMP loop8

done8:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// TRANSPOSE4X2 transposes the 4×4 float32 block in each 128-bit lane of
// Y8..Y11 (one row of eight each) in place, through Y12..Y15: the low
// lanes hold columns c..c+3, the high lanes columns c+4..c+7, and the
// transpose is its own inverse.
#define TRANSPOSE4X2 \
	VUNPCKLPS Y9, Y8, Y12; \
	VUNPCKLPS Y11, Y10, Y13; \
	VUNPCKHPS Y9, Y8, Y14; \
	VUNPCKHPS Y11, Y10, Y15; \
	VUNPCKLPD Y13, Y12, Y8; \
	VUNPCKHPD Y13, Y12, Y9; \
	VUNPCKLPD Y15, Y14, Y10; \
	VUNPCKHPD Y15, Y14, Y11

// INRANGE8X2(k, za, zb) sets opmask k to the lanes of za and zb that are
// ordered and in [−708, 709].
#define INRANGE8X2(k, za, zb) \
	VCMPPD.BCST $0x1D, expconst<>+C_LO(SB), za, k; \
	VCMPPD.BCST $0x12, expconst<>+C_HI(SB), za, k, k; \
	VCMPPD.BCST $0x1D, expconst<>+C_LO(SB), zb, k, k; \
	VCMPPD.BCST $0x12, expconst<>+C_HI(SB), zb, k, k

// func expRows4AVX512(dst, x []float32, stride, n int, maxV *[4]float32, sum *[4]float64) int
//
// expRows4AVX on blocks of four rows by eight columns, n a multiple of
// eight. A block is loaded one row per YMM register and transposed
// within each 128-bit lane (TRANSPOSE4X2), and each register widened to
// a ZMM one: lanes 0–3 of Z8+i hold column c+i and lanes 4–7 column
// c+4+i, row r in lanes r and 4+r. After the exps (EXP8X4), lane r of Y6
// adds row r's exps one column at a time in column order — the low
// halves Y8..Y11 (columns c..c+3), then the high halves (c+4..c+7) —
// each row's scalar chain, bit for bit. A block with any argument
// outside [−708, 709] or NaN stops the loop before anything of it is
// written; the count of columns done is returned and sum holds the sums
// so far.
TEXT ·expRows4AVX512(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ stride+48(FP), R8
	MOVQ n+56(FP), CX
	MOVQ maxV+64(FP), R9
	MOVQ sum+72(FP), R10
	VBROADCASTF128 (R9), Y5
	VMOVUPD (R10), Y6
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R11
	XORQ AX, AX

block8loop:
	CMPQ AX, CX
	JGE block8done
	LEAQ (SI)(AX*4), DX
	VMOVUPS (DX), Y8
	VMOVUPS (DX)(R8*1), Y9
	VMOVUPS (DX)(R8*2), Y10
	VMOVUPS (DX)(R11*1), Y11
	TRANSPOSE4X2
	VSUBPS Y5, Y8, Y8
	VSUBPS Y5, Y9, Y9
	VSUBPS Y5, Y10, Y10
	VSUBPS Y5, Y11, Y11
	VCVTPS2PD Y8, Z8
	VCVTPS2PD Y9, Z9
	VCVTPS2PD Y10, Z10
	VCVTPS2PD Y11, Z11
	INRANGE8X2(K1, Z8, Z9)
	INRANGE8X2(K2, Z10, Z11)
	KANDW K1, K2, K1
	KMOVW K1, BX
	CMPL BX, $0xFF
	JNE block8done
	EXP8X4
	VADDPD Y8, Y6, Y6
	VADDPD Y9, Y6, Y6
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y6, Y6
	VEXTRACTF64X4 $1, Z8, Y12
	VEXTRACTF64X4 $1, Z9, Y13
	VEXTRACTF64X4 $1, Z10, Y14
	VEXTRACTF64X4 $1, Z11, Y15
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y6, Y6
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y6, Y6
	VCVTPD2PS Z8, Y8
	VCVTPD2PS Z9, Y9
	VCVTPD2PS Z10, Y10
	VCVTPD2PS Z11, Y11
	TRANSPOSE4X2
	LEAQ (DI)(AX*4), DX
	VMOVUPS Y8, (DX)
	VMOVUPS Y9, (DX)(R8*1)
	VMOVUPS Y10, (DX)(R8*2)
	VMOVUPS Y11, (DX)(R11*1)
	ADDQ $8, AX
	JMP block8loop

block8done:
	VMOVUPD Y6, (R10)
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

// SIGMOID8: Y0 = float32(1/(1+exp(−float64(v)))) for the eight float32
// lanes v of Y8, with Z7 = 1.0 in every lane; SIGMOID4 on eight lanes.
#define SIGMOID8(out) \
	VCVTPS2PD Y8, Z0; \
	VPXORQ.BCST expconst<>+C_SIGN(SB), Z0, Z0; \
	INRANGE8(out); \
	EXP8; \
	VADDPD Z0, Z7, Z0; \
	VDIVPD Z0, Z7, Z0; \
	VCVTPD2PS Z0, Y0

// func sigmoidRowAVX512(o, x []float32) int
TEXT ·sigmoidRowAVX512(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VBROADCASTSD expconst<>+C_ONE(SB), Z7
	XORQ AX, AX

sig8loop:
	CMPQ AX, CX
	JGE sig8done
	VMOVUPS (SI)(AX*4), Y8
	SIGMOID8(sig8done)
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP sig8loop

sig8done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func siluRowAVX512(o, x []float32) int
TEXT ·siluRowAVX512(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VBROADCASTSD expconst<>+C_ONE(SB), Z7
	XORQ AX, AX

silu8loop:
	CMPQ AX, CX
	JGE silu8done
	VMOVUPS (SI)(AX*4), Y8
	SIGMOID8(silu8done)
	VMULPS Y8, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP silu8loop

silu8done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// The vector Gelu: four float64 lanes through math.Erf's pure-Go
// definition ($GOROOT/src/math/erf.go) with the same constants, then
// Gelu's 0.5·v·(1+erf(v/√2)) in the scalar kernel's order. erf.go's five
// |x| intervals keep their own formulas; a group computes each interval
// one of its lanes falls in, for all four lanes, and blends the lanes
// that belong to it (VBLENDVPD), from the top interval down:
//
//   |x| ≥ 6             1
//   [1/0.35, 6)         1 − exp(−z·z − 0.5625)·exp((z−x)(z+x) + R/S)/x,
//   [1.25, 1/0.35)        R/S in 1/x² by rb/sb above 1/0.35, ra/sa below
//   [0.84375, 1.25)     erx + P/Q in x − 1
//   [2⁻²⁸, 0.84375)     x + x·(r/s) in x²
//   below 2⁻²⁸          x + efx·x
//
// with x the argument's magnitude (v/√2 for Gelu); each result takes the
// argument's sign bit (VXORPD), which is erf.go's negation of each
// formula for a negative argument, −0 included.
// Every step is one IEEE operation in erf.go's order, a product rounded
// before its sum as go1.24 compiles erf.go at every GOAMD64 level (vecErf's
// self-check refuses the body under a toolchain that fuses them), and z
// is x with its low 32 bits cleared (VANDPD), Float64frombits' truncation.
// The two exps are EXP4, math.Exp bit for bit; their arguments stay in
// [−708, 709] over [1.25, 6), and a lane outside that interval enters
// them as 2. erf.go's branch below VeryTiny (2.8e−306) gives the same ±0
// at zero, and no other argument below it reaches the body: v/√2 of a
// nonzero float32 lies above it, as does every self-check input. A group
// with a NaN stops the loop and is left to the scalar definition, whose
// NaN payloads the body does not copy.

#define E_SQRT2 0
#define E_ABS 32
#define E_HI32 64
#define E_B1 96
#define E_B2 128
#define E_B3 160
#define E_B6 192
#define E_SMALL 224
#define E_9_16 256
#define E_ERX 288
#define E_EFX 320
#define E_PP0 352
#define E_PP1 384
#define E_PP2 416
#define E_PP3 448
#define E_PP4 480
#define E_QQ1 512
#define E_QQ2 544
#define E_QQ3 576
#define E_QQ4 608
#define E_QQ5 640
#define E_PA0 672
#define E_PA1 704
#define E_PA2 736
#define E_PA3 768
#define E_PA4 800
#define E_PA5 832
#define E_PA6 864
#define E_QA1 896
#define E_QA2 928
#define E_QA3 960
#define E_QA4 992
#define E_QA5 1024
#define E_QA6 1056
#define E_RA0 1088
#define E_RA1 1120
#define E_RA2 1152
#define E_RA3 1184
#define E_RA4 1216
#define E_RA5 1248
#define E_RA6 1280
#define E_RA7 1312
#define E_SA1 1344
#define E_SA2 1376
#define E_SA3 1408
#define E_SA4 1440
#define E_SA5 1472
#define E_SA6 1504
#define E_SA7 1536
#define E_SA8 1568
#define E_RB0 1600
#define E_RB1 1632
#define E_RB2 1664
#define E_RB3 1696
#define E_RB4 1728
#define E_RB5 1760
#define E_RB6 1792
#define E_SB1 1824
#define E_SB2 1856
#define E_SB3 1888
#define E_SB4 1920
#define E_SB5 1952
#define E_SB6 1984
#define E_SB7 2016

#define E4(off, v) \
	DATA erfconst<>+(off)(SB)/8, v; \
	DATA erfconst<>+(off+8)(SB)/8, v; \
	DATA erfconst<>+(off+16)(SB)/8, v; \
	DATA erfconst<>+(off+24)(SB)/8, v

E4(E_SQRT2, $0x3ff6a09e667f3bcd)
E4(E_ABS, $0x7fffffffffffffff)
E4(E_HI32, $0xffffffff00000000)
E4(E_B1, $0.84375)
E4(E_B2, $1.25)
E4(E_B3, $0x4006db6db6db6db7)
E4(E_B6, $6.0)
E4(E_SMALL, $0x3e30000000000000)
E4(E_9_16, $0.5625)
E4(E_ERX, $8.45062911510467529297e-01)
E4(E_EFX, $1.28379167095512586316e-01)
E4(E_PP0, $1.28379167095512558561e-01)
E4(E_PP1, $-3.25042107247001499370e-01)
E4(E_PP2, $-2.84817495755985104766e-02)
E4(E_PP3, $-5.77027029648944159157e-03)
E4(E_PP4, $-2.37630166566501626084e-05)
E4(E_QQ1, $3.97917223959155352819e-01)
E4(E_QQ2, $6.50222499887672944485e-02)
E4(E_QQ3, $5.08130628187576562776e-03)
E4(E_QQ4, $1.32494738004321644526e-04)
E4(E_QQ5, $-3.96022827877536812320e-06)
E4(E_PA0, $-2.36211856075265944077e-03)
E4(E_PA1, $4.14856118683748331666e-01)
E4(E_PA2, $-3.72207876035701323847e-01)
E4(E_PA3, $3.18346619901161753674e-01)
E4(E_PA4, $-1.10894694282396677476e-01)
E4(E_PA5, $3.54783043256182359371e-02)
E4(E_PA6, $-2.16637559486879084300e-03)
E4(E_QA1, $1.06420880400844228286e-01)
E4(E_QA2, $5.40397917702171048937e-01)
E4(E_QA3, $7.18286544141962662868e-02)
E4(E_QA4, $1.26171219808761642112e-01)
E4(E_QA5, $1.36370839120290507362e-02)
E4(E_QA6, $1.19844998467991074170e-02)
E4(E_RA0, $-9.86494403484714822705e-03)
E4(E_RA1, $-6.93858572707181764372e-01)
E4(E_RA2, $-1.05586262253232909814e+01)
E4(E_RA3, $-6.23753324503260060396e+01)
E4(E_RA4, $-1.62396669462573470355e+02)
E4(E_RA5, $-1.84605092906711035994e+02)
E4(E_RA6, $-8.12874355063065934246e+01)
E4(E_RA7, $-9.81432934416914548592e+00)
E4(E_SA1, $1.96512716674392571292e+01)
E4(E_SA2, $1.37657754143519042600e+02)
E4(E_SA3, $4.34565877475229228821e+02)
E4(E_SA4, $6.45387271733267880336e+02)
E4(E_SA5, $4.29008140027567833386e+02)
E4(E_SA6, $1.08635005541779435134e+02)
E4(E_SA7, $6.57024977031928170135e+00)
E4(E_SA8, $-6.04244152148580987438e-02)
E4(E_RB0, $-9.86494292470009928597e-03)
E4(E_RB1, $-7.99283237680523006574e-01)
E4(E_RB2, $-1.77579549177547519889e+01)
E4(E_RB3, $-1.60636384855821916062e+02)
E4(E_RB4, $-6.37566443368389627722e+02)
E4(E_RB5, $-1.02509513161107724954e+03)
E4(E_RB6, $-4.83519191608651397019e+02)
E4(E_SB1, $3.03380607434824582924e+01)
E4(E_SB2, $3.25792512996573918826e+02)
E4(E_SB3, $1.53672958608443695994e+03)
E4(E_SB4, $3.19985821950859553908e+03)
E4(E_SB5, $2.55305040643316442583e+03)
E4(E_SB6, $4.74528541206955367215e+02)
E4(E_SB7, $-2.24409524465858183362e+01)
GLOBL erfconst<>(SB), RODATA|NOPTR, $2048

// HORNER(c, s, t): t = c + s·t, the product rounded before the sum.
#define HORNER(c, s, t) \
	VMULPD s, t, t; \
	VADDPD erfconst<>+c(SB), t, t

// RSA(R, S), RSB(R, S): erfc's R and S in s = Y13 over [1.25, 1/0.35)
// and [1/0.35, 6).
#define RSA(R, S) \
	VMULPD erfconst<>+E_RA7(SB), Y13, R; \
	VADDPD erfconst<>+E_RA6(SB), R, R; \
	HORNER(E_RA5, Y13, R); \
	HORNER(E_RA4, Y13, R); \
	HORNER(E_RA3, Y13, R); \
	HORNER(E_RA2, Y13, R); \
	HORNER(E_RA1, Y13, R); \
	HORNER(E_RA0, Y13, R); \
	VMULPD erfconst<>+E_SA8(SB), Y13, S; \
	VADDPD erfconst<>+E_SA7(SB), S, S; \
	HORNER(E_SA6, Y13, S); \
	HORNER(E_SA5, Y13, S); \
	HORNER(E_SA4, Y13, S); \
	HORNER(E_SA3, Y13, S); \
	HORNER(E_SA2, Y13, S); \
	HORNER(E_SA1, Y13, S); \
	VMULPD Y13, S, S; \
	VADDPD expconst<>+C_ONE(SB), S, S

#define RSB(R, S) \
	VMULPD erfconst<>+E_RB6(SB), Y13, R; \
	VADDPD erfconst<>+E_RB5(SB), R, R; \
	HORNER(E_RB4, Y13, R); \
	HORNER(E_RB3, Y13, R); \
	HORNER(E_RB2, Y13, R); \
	HORNER(E_RB1, Y13, R); \
	HORNER(E_RB0, Y13, R); \
	VMULPD erfconst<>+E_SB7(SB), Y13, S; \
	VADDPD erfconst<>+E_SB6(SB), S, S; \
	HORNER(E_SB5, Y13, S); \
	HORNER(E_SB4, Y13, S); \
	HORNER(E_SB3, Y13, S); \
	HORNER(E_SB2, Y13, S); \
	HORNER(E_SB1, Y13, S); \
	VMULPD Y13, S, S; \
	VADDPD expconst<>+C_ONE(SB), S, S

// ERF4: Y15 = erf(Y9) for four ordered lanes, Y8 kept. Y10 holds
// |x| and Y11 x's sign bits; Y3..Y6 are the masks |x| < 0.84375, < 1.25,
// < 1/0.35 and < 6, and R8..R11 their lane bits. Y15 collects erf(|x|)
// from the top interval down and takes the sign last. Over [1.25, 6),
// lanes outside it enter as 2, so that none reaches a denormal or an
// exp argument out of range.
#define ERF4 \
	VANDPD erfconst<>+E_ABS(SB), Y9, Y10; \
	VANDPD expconst<>+C_SIGN(SB), Y9, Y11; \
	VMOVUPD expconst<>+C_ONE(SB), Y15; \
	VCMPPD $0x11, erfconst<>+E_B1(SB), Y10, Y3; \
	VCMPPD $0x11, erfconst<>+E_B2(SB), Y10, Y4; \
	VCMPPD $0x11, erfconst<>+E_B3(SB), Y10, Y5; \
	VCMPPD $0x11, erfconst<>+E_B6(SB), Y10, Y6; \
	VMOVMSKPD Y3, R8; \
	VMOVMSKPD Y4, R9; \
	VMOVMSKPD Y5, R10; \
	VMOVMSKPD Y6, R11; \
	MOVL R9, BX; \
	NOTL BX; \
	ANDL R11, BX; \
	JZ below125; \
	VANDNPD Y6, Y4, Y7; \
	VMOVUPD expconst<>+C_TWO(SB), Y12; \
	VBLENDVPD Y7, Y10, Y12, Y12; \
	VMULPD Y12, Y12, Y13; \
	VMOVUPD expconst<>+C_ONE(SB), Y14; \
	VDIVPD Y13, Y14, Y13; \
	MOVL R10, BX; \
	NOTL BX; \
	ANDL R11, BX; \
	JNZ hasrb; \
	RSA(Y14, Y9); \
	JMP rsdone; \
hasrb: \
	MOVL R9, BX; \
	NOTL BX; \
	ANDL R10, BX; \
	JNZ bothrs; \
	RSB(Y14, Y9); \
	JMP rsdone; \
bothrs: \
	RSA(Y14, Y9); \
	RSB(Y0, Y1); \
	VBLENDVPD Y5, Y14, Y0, Y14; \
	VBLENDVPD Y5, Y9, Y1, Y9; \
rsdone: \
	VANDPD erfconst<>+E_HI32(SB), Y12, Y7; \
	VXORPD expconst<>+C_SIGN(SB), Y7, Y0; \
	VMULPD Y7, Y0, Y0; \
	VSUBPD erfconst<>+E_9_16(SB), Y0, Y0; \
	EXP4; \
	VMOVAPD Y0, Y13; \
	VSUBPD Y12, Y7, Y0; \
	VADDPD Y12, Y7, Y1; \
	VMULPD Y1, Y0, Y0; \
	VDIVPD Y9, Y14, Y1; \
	VADDPD Y1, Y0, Y0; \
	EXP4; \
	VMULPD Y0, Y13, Y0; \
	VDIVPD Y12, Y0, Y0; \
	VMOVUPD expconst<>+C_ONE(SB), Y1; \
	VSUBPD Y0, Y1, Y0; \
	VBLENDVPD Y6, Y0, Y15, Y15; \
below125: \
	MOVL R8, BX; \
	NOTL BX; \
	ANDL R9, BX; \
	JZ below084; \
	VSUBPD expconst<>+C_ONE(SB), Y10, Y12; \
	VMULPD erfconst<>+E_PA6(SB), Y12, Y13; \
	VADDPD erfconst<>+E_PA5(SB), Y13, Y13; \
	HORNER(E_PA4, Y12, Y13); \
	HORNER(E_PA3, Y12, Y13); \
	HORNER(E_PA2, Y12, Y13); \
	HORNER(E_PA1, Y12, Y13); \
	HORNER(E_PA0, Y12, Y13); \
	VMULPD erfconst<>+E_QA6(SB), Y12, Y14; \
	VADDPD erfconst<>+E_QA5(SB), Y14, Y14; \
	HORNER(E_QA4, Y12, Y14); \
	HORNER(E_QA3, Y12, Y14); \
	HORNER(E_QA2, Y12, Y14); \
	HORNER(E_QA1, Y12, Y14); \
	VMULPD Y12, Y14, Y14; \
	VADDPD expconst<>+C_ONE(SB), Y14, Y14; \
	VDIVPD Y14, Y13, Y13; \
	VADDPD erfconst<>+E_ERX(SB), Y13, Y13; \
	VBLENDVPD Y4, Y13, Y15, Y15; \
below084: \
	TESTL R8, R8; \
	JZ signed; \
	VMULPD Y10, Y10, Y12; \
	VMULPD erfconst<>+E_PP4(SB), Y12, Y13; \
	VADDPD erfconst<>+E_PP3(SB), Y13, Y13; \
	HORNER(E_PP2, Y12, Y13); \
	HORNER(E_PP1, Y12, Y13); \
	HORNER(E_PP0, Y12, Y13); \
	VMULPD erfconst<>+E_QQ5(SB), Y12, Y14; \
	VADDPD erfconst<>+E_QQ4(SB), Y14, Y14; \
	HORNER(E_QQ3, Y12, Y14); \
	HORNER(E_QQ2, Y12, Y14); \
	HORNER(E_QQ1, Y12, Y14); \
	VMULPD Y12, Y14, Y14; \
	VADDPD expconst<>+C_ONE(SB), Y14, Y14; \
	VDIVPD Y14, Y13, Y13; \
	VMULPD Y13, Y10, Y13; \
	VADDPD Y13, Y10, Y13; \
	VMULPD erfconst<>+E_EFX(SB), Y10, Y14; \
	VADDPD Y14, Y10, Y14; \
	VCMPPD $0x11, erfconst<>+E_SMALL(SB), Y10, Y12; \
	VBLENDVPD Y12, Y14, Y13, Y13; \
	VBLENDVPD Y3, Y13, Y15, Y15; \
signed: \
	VXORPD Y11, Y15, Y15

// UNORDERED(out) jumps to out when a lane of Y9 is NaN.
#define UNORDERED(out) \
	VCMPPD $3, Y9, Y9, Y10; \
	VMOVMSKPD Y10, DX; \
	TESTL DX, DX; \
	JNZ out

// func erfAVX(dst, x []float64) int
//
// dst[i] = math.Erf(x[i]) by groups of four, stopping before the first
// group with a NaN: the self-check's body.
TEXT ·erfAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX

erfloop:
	CMPQ AX, CX
	JGE erfdone
	VMOVUPD (SI)(AX*8), Y9
	UNORDERED(erfdone)
	ERF4
	VMOVUPD Y15, (DI)(AX*8)
	ADDQ $4, AX
	JMP erfloop

erfdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func geluRowAVX(o, x []float32) int
//
// o[i] = float32(0.5·float64(x[i])·(1 + erf(float64(x[i])/√2))) by
// groups of four, the scalar Gelu's order, stopping before the first
// group with a NaN.
TEXT ·geluRowAVX(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX

geluloop:
	CMPQ AX, CX
	JGE geludone
	VCVTPS2PD (SI)(AX*4), Y8
	VDIVPD erfconst<>+E_SQRT2(SB), Y8, Y9
	UNORDERED(geludone)
	ERF4
	VADDPD expconst<>+C_ONE(SB), Y15, Y15
	VMULPD expconst<>+C_HALF(SB), Y8, Y0
	VMULPD Y15, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	JMP geluloop

geludone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
