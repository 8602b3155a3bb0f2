#include "textflag.h"

// func axpy4SSE(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
//
// Baseline SSE2 only: MULPS then ADDPS, never a fused multiply-add, so
// each lane rounds exactly as the scalar Go body does. Eight elements
// (two 4-lane vectors, two independent add chains) per iteration; loads
// and stores are unaligned because callers hand in arbitrary sub-slices.
TEXT ·axpy4SSE(SB), NOSPLIT, $0-136
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	MOVSS a0+120(FP), X4
	SHUFPS $0, X4, X4
	MOVSS a1+124(FP), X5
	SHUFPS $0, X5, X5
	MOVSS a2+128(FP), X6
	SHUFPS $0, X6, X6
	MOVSS a3+132(FP), X7
	SHUFPS $0, X7, X7
	SHRQ $3, CX
	JZ done
	XORQ AX, AX

loop:
	MOVUPS (DI)(AX*1), X0
	MOVUPS 16(DI)(AX*1), X1

	MOVUPS (R8)(AX*1), X2
	MOVUPS 16(R8)(AX*1), X3
	MULPS X4, X2
	MULPS X4, X3
	ADDPS X2, X0
	ADDPS X3, X1

	MOVUPS (R9)(AX*1), X2
	MOVUPS 16(R9)(AX*1), X3
	MULPS X5, X2
	MULPS X5, X3
	ADDPS X2, X0
	ADDPS X3, X1

	MOVUPS (R10)(AX*1), X2
	MOVUPS 16(R10)(AX*1), X3
	MULPS X6, X2
	MULPS X6, X3
	ADDPS X2, X0
	ADDPS X3, X1

	MOVUPS (R11)(AX*1), X2
	MOVUPS 16(R11)(AX*1), X3
	MULPS X7, X2
	MULPS X7, X3
	ADDPS X2, X0
	ADDPS X3, X1

	MOVUPS X0, (DI)(AX*1)
	MOVUPS X1, 16(DI)(AX*1)
	ADDQ $32, AX
	DECQ CX
	JNZ loop

done:
	RET
