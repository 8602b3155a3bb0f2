#include "textflag.h"

// tailmask is eight all-ones lanes then eight zero lanes: the eight
// floats from lane 8−r hold −1 in their low r lanes.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// The GEMM register tiles. Each keeps a 4-row block of C in accumulator
// registers over all of k: per p it loads one B row segment, broadcasts
// the four A values of column p and adds each rounded product to its
// accumulator (a multiply then an add, never a fused multiply-add), so
// every c[i,j] sums its k products in ascending p from +0 as axpy4 does.
// A block of C is stored once, at the end of its k loop.
// gemmStripAVX512 walks such blocks across a whole strip of four rows in
// one call; gemm4x16AVX and gemm4x8SSE are one block a call, and with a
// zero k store the cleared block without entering the loop.

// STEP32 adds B's row p, in Z8 and Z9, times each of A's four values
// of column p to the 4×32 accumulators Z0-Z7.
#define STEP32 \
	VBROADCASTSS (SI)(AX*1), Z10; \
	VBROADCASTSS (R10)(AX*1), Z11; \
	VBROADCASTSS (R11)(AX*1), Z12; \
	VBROADCASTSS (R12)(AX*1), Z13; \
	VMULPS Z8, Z10, Z14; \
	VMULPS Z9, Z10, Z15; \
	VADDPS Z14, Z0, Z0; \
	VADDPS Z15, Z1, Z1; \
	VMULPS Z8, Z11, Z14; \
	VMULPS Z9, Z11, Z15; \
	VADDPS Z14, Z2, Z2; \
	VADDPS Z15, Z3, Z3; \
	VMULPS Z8, Z12, Z14; \
	VMULPS Z9, Z12, Z15; \
	VADDPS Z14, Z4, Z4; \
	VADDPS Z15, Z5, Z5; \
	VMULPS Z8, Z13, Z14; \
	VMULPS Z9, Z13, Z15; \
	VADDPS Z14, Z6, Z6; \
	VADDPS Z15, Z7, Z7

// func gemmStripAVX512(a, b []float32, ldb int64, c []float32, ldc, k, w int64)
//
// The AVX-512F column walk over one strip C[4,w]: 4×32 tiles while 32
// columns remain, then one tail tile for the last 1-31, whose load mask
// reads no B lane at or past w (a cleared lane instead) and whose store
// mask writes no C lane at or past w:
//   - 17-31 columns: per row a full ZMM and one under the opmask K1;
//   - 9-16: one ZMM per row under K1;
//   - 1-8 (attention's P·V, n = 8, takes only this tile): one YMM per
//     row under VMASKMOVPS's vector mask Y9. A ZMM tile masked to
//     eight lanes does as many operations per k step and measured
//     slower on P·V (EXPERIMENTS.md, "One AVX-512 call per four-row
//     strip").
// Z0-Z7 are the accumulators (two per row), Z8-Z9 the B segment,
// Z10-Z13 the broadcast A values, Z14-Z15 the products. Only Z0-Z15 are
// used, so the closing VZEROUPPER leaves no upper register state dirty.
// A zero k writes nothing.
//
// SI and R10-R12 are A's four rows, AX the byte offset of column p in
// them; R8 and DI are B's and C's columns at the current tile, R13 B's
// row p; BX counts the columns left, CX the k steps.
TEXT ·gemmStripAVX512(SB), NOSPLIT, $0-104
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), R8
	MOVQ ldb+48(FP), R9
	MOVQ c_base+56(FP), DI
	MOVQ ldc+80(FP), DX
	MOVQ k+88(FP), CX
	MOVQ w+96(FP), BX
	TESTQ CX, CX
	JZ done
	SHLQ $2, R9
	SHLQ $2, DX
	LEAQ (SI)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	LEAQ (R11)(CX*4), R12
	CMPQ BX, $32
	JB tail

tile32:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ k+88(FP), CX
	MOVQ R8, R13
	XORQ AX, AX

loop32:
	VMOVUPS (R13), Z8
	VMOVUPS 64(R13), Z9
	STEP32
	ADDQ $4, AX
	ADDQ R9, R13
	DECQ CX
	JNZ loop32

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, (DI)(DX*1)
	VMOVUPS Z3, 64(DI)(DX*1)
	LEAQ (DI)(DX*2), R13
	VMOVUPS Z4, (R13)
	VMOVUPS Z5, 64(R13)
	VMOVUPS Z6, (R13)(DX*1)
	VMOVUPS Z7, 64(R13)(DX*1)
	ADDQ $128, R8
	ADDQ $128, DI
	SUBQ $32, BX
	CMPQ BX, $32
	JAE tile32

tail:
	TESTQ BX, BX
	JZ done
	CMPQ BX, $8
	JBE tail8
	CMPQ BX, $16
	JA tail31

	// 9-16 columns: K1 holds the low BX lanes.
	MOVQ BX, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VPXORD Z0, Z0, Z0
	VPXORD Z2, Z2, Z2
	VPXORD Z4, Z4, Z4
	VPXORD Z6, Z6, Z6
	MOVQ k+88(FP), CX
	MOVQ R8, R13
	XORQ AX, AX

loop16:
	VMOVUPS.Z (R13), K1, Z8
	VBROADCASTSS (SI)(AX*1), Z10
	VBROADCASTSS (R10)(AX*1), Z11
	VBROADCASTSS (R11)(AX*1), Z12
	VBROADCASTSS (R12)(AX*1), Z13
	VMULPS Z8, Z10, Z14
	VMULPS Z8, Z11, Z15
	VADDPS Z14, Z0, Z0
	VADDPS Z15, Z2, Z2
	VMULPS Z8, Z12, Z14
	VMULPS Z8, Z13, Z15
	VADDPS Z14, Z4, Z4
	VADDPS Z15, Z6, Z6
	ADDQ $4, AX
	ADDQ R9, R13
	DECQ CX
	JNZ loop16

	VMOVUPS Z0, K1, (DI)
	VMOVUPS Z2, K1, (DI)(DX*1)
	LEAQ (DI)(DX*2), R13
	VMOVUPS Z4, K1, (R13)
	VMOVUPS Z6, K1, (R13)(DX*1)
	JMP done

tail8:
	// 1-8 columns on 8-lane registers: Y9 holds −1 in the low BX lanes,
	// the mask VMASKMOVPS loads and stores under.
	MOVQ $8, CX
	SUBQ BX, CX
	LEAQ tailmask<>(SB), AX
	VMOVUPS (AX)(CX*4), Y9
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6
	MOVQ k+88(FP), CX
	MOVQ R8, R13
	XORQ AX, AX

loop8:
	VMASKMOVPS (R13), Y9, Y8
	VBROADCASTSS (SI)(AX*1), Y10
	VBROADCASTSS (R10)(AX*1), Y11
	VBROADCASTSS (R11)(AX*1), Y12
	VBROADCASTSS (R12)(AX*1), Y13
	VMULPS Y8, Y10, Y14
	VMULPS Y8, Y11, Y15
	VADDPS Y14, Y0, Y0
	VADDPS Y15, Y2, Y2
	VMULPS Y8, Y12, Y14
	VMULPS Y8, Y13, Y15
	VADDPS Y14, Y4, Y4
	VADDPS Y15, Y6, Y6
	ADDQ $4, AX
	ADDQ R9, R13
	DECQ CX
	JNZ loop8

	VMASKMOVPS Y0, Y9, (DI)
	VMASKMOVPS Y2, Y9, (DI)(DX*1)
	LEAQ (DI)(DX*2), R13
	VMASKMOVPS Y4, Y9, (R13)
	VMASKMOVPS Y6, Y9, (R13)(DX*1)
	JMP done

tail31:
	// 17-31 columns: the first 16 whole, K1 holds the low BX−16 lanes
	// of the second 16.
	LEAQ -16(BX), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ k+88(FP), CX
	MOVQ R8, R13
	XORQ AX, AX

loop31:
	VMOVUPS (R13), Z8
	VMOVUPS.Z 64(R13), K1, Z9
	STEP32
	ADDQ $4, AX
	ADDQ R9, R13
	DECQ CX
	JNZ loop31

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, K1, 64(DI)
	VMOVUPS Z2, (DI)(DX*1)
	VMOVUPS Z3, K1, 64(DI)(DX*1)
	LEAQ (DI)(DX*2), R13
	VMOVUPS Z4, (R13)
	VMOVUPS Z5, K1, 64(R13)
	VMOVUPS Z6, (R13)(DX*1)
	VMOVUPS Z7, K1, 64(R13)(DX*1)

done:
	VZEROUPPER
	RET

// func gemm4x16AVX(a, b []float32, ldb int64, c []float32, ldc, k int64)
//
// 8-lane AVX: Y0-Y7 are the 4×16 accumulators (two per row), Y8-Y9 the
// B segment, Y10-Y13 the broadcast A values, Y14-Y15 the products.
TEXT ·gemm4x16AVX(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), R8
	MOVQ ldb+48(FP), R9
	MOVQ c_base+56(FP), DI
	MOVQ ldc+80(FP), DX
	MOVQ k+88(FP), CX
	SHLQ $2, R9
	SHLQ $2, DX
	LEAQ (SI)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	LEAQ (R11)(CX*4), R12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ CX, CX
	JZ store16
	XORQ AX, AX

loop16:
	VMOVUPS (R8), Y8
	VMOVUPS 32(R8), Y9
	VBROADCASTSS (SI)(AX*1), Y10
	VBROADCASTSS (R10)(AX*1), Y11
	VBROADCASTSS (R11)(AX*1), Y12
	VBROADCASTSS (R12)(AX*1), Y13

	VMULPS Y8, Y10, Y14
	VMULPS Y9, Y10, Y15
	VADDPS Y14, Y0, Y0
	VADDPS Y15, Y1, Y1

	VMULPS Y8, Y11, Y14
	VMULPS Y9, Y11, Y15
	VADDPS Y14, Y2, Y2
	VADDPS Y15, Y3, Y3

	VMULPS Y8, Y12, Y14
	VMULPS Y9, Y12, Y15
	VADDPS Y14, Y4, Y4
	VADDPS Y15, Y5, Y5

	VMULPS Y8, Y13, Y14
	VMULPS Y9, Y13, Y15
	VADDPS Y14, Y6, Y6
	VADDPS Y15, Y7, Y7

	ADDQ $4, AX
	ADDQ R9, R8
	DECQ CX
	JNZ loop16

store16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ DX, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ DX, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ DX, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm4x8SSE(a, b []float32, ldb int64, c []float32, ldc, k int64)
//
// Baseline SSE2, the same body on 4-lane registers: X0-X7 are the 4×8
// accumulators, X8-X9 the B segment, X10-X15 the broadcasts and their
// products.
TEXT ·gemm4x8SSE(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), R8
	MOVQ ldb+48(FP), R9
	MOVQ c_base+56(FP), DI
	MOVQ ldc+80(FP), DX
	MOVQ k+88(FP), CX
	SHLQ $2, R9
	SHLQ $2, DX
	LEAQ (SI)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	LEAQ (R11)(CX*4), R12
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ CX, CX
	JZ store8
	XORQ AX, AX

loop8:
	MOVUPS (R8), X8
	MOVUPS 16(R8), X9

	MOVSS (SI)(AX*1), X10
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS X8, X10
	MULPS X9, X11
	ADDPS X10, X0
	ADDPS X11, X1

	MOVSS (R10)(AX*1), X12
	SHUFPS $0, X12, X12
	MOVAPS X12, X13
	MULPS X8, X12
	MULPS X9, X13
	ADDPS X12, X2
	ADDPS X13, X3

	MOVSS (R11)(AX*1), X14
	SHUFPS $0, X14, X14
	MOVAPS X14, X15
	MULPS X8, X14
	MULPS X9, X15
	ADDPS X14, X4
	ADDPS X15, X5

	MOVSS (R12)(AX*1), X10
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS X8, X10
	MULPS X9, X11
	ADDPS X10, X6
	ADDPS X11, X7

	ADDQ $4, AX
	ADDQ R9, R8
	DECQ CX
	JNZ loop8

store8:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ DX, DI
	MOVUPS X2, (DI)
	MOVUPS X3, 16(DI)
	ADDQ DX, DI
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	ADDQ DX, DI
	MOVUPS X6, (DI)
	MOVUPS X7, 16(DI)
	RET
