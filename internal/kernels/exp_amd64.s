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
