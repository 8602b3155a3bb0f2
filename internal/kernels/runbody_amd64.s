#include "textflag.h"

// The float32 vector loops (runbody_amd64.go), baseline SSE2 only: one
// packed instruction per element, no fused multiply-add and no CPUID, so
// each lane computes exactly what the op's scalar Go definition does.
// Eight elements (two 4-lane vectors) per iteration; len(o) must be a
// multiple of eight. Loads and stores are unaligned because runs start
// anywhere in a tensor, so no packed op takes a memory operand.
//
// In Go operand order OP X2, X0 writes X0 = X0 OP X2, with the left
// operand in X0. MAXPS X4, X0 with X4 = +0 gives X0 > 0 ? X0 : +0 — the
// second operand whenever the compare is false, NaN and −0 included —
// which is Relu's scalar definition.
//
// Each TEXT block loads its arguments itself, so that go vet checks the
// frame against the Go declaration; the loops are macros over
// DI = &o[0], CX = len(o), SI = &x[0] or X4 = x broadcast, and
// DX = &y[0] or X4 = y broadcast.

// VV(OP): o[i] = x[i] OP y[i].
#define VV(OP) \
	XORQ AX, AX; \
	SHRQ $3, CX; \
	JZ done; \
loop: \
	MOVUPS (SI)(AX*1), X0; \
	MOVUPS 16(SI)(AX*1), X1; \
	MOVUPS (DX)(AX*1), X2; \
	MOVUPS 16(DX)(AX*1), X3; \
	OP X2, X0; \
	OP X3, X1; \
	MOVUPS X0, (DI)(AX*1); \
	MOVUPS X1, 16(DI)(AX*1); \
	ADDQ $32, AX; \
	DECQ CX; \
	JNZ loop; \
done: \
	RET

// VS(OP): o[i] = x[i] OP y.
#define VS(OP) \
	SHUFPS $0, X4, X4; \
	XORQ AX, AX; \
	SHRQ $3, CX; \
	JZ done; \
loop: \
	MOVUPS (SI)(AX*1), X0; \
	MOVUPS 16(SI)(AX*1), X1; \
	OP X4, X0; \
	OP X4, X1; \
	MOVUPS X0, (DI)(AX*1); \
	MOVUPS X1, 16(DI)(AX*1); \
	ADDQ $32, AX; \
	DECQ CX; \
	JNZ loop; \
done: \
	RET

// SV(OP): o[i] = x OP y[i]; the broadcast x is copied into X0/X1 each
// iteration so that it stays the left operand.
#define SV(OP) \
	SHUFPS $0, X4, X4; \
	XORQ AX, AX; \
	SHRQ $3, CX; \
	JZ done; \
loop: \
	MOVAPS X4, X0; \
	MOVAPS X4, X1; \
	MOVUPS (DX)(AX*1), X2; \
	MOVUPS 16(DX)(AX*1), X3; \
	OP X2, X0; \
	OP X3, X1; \
	MOVUPS X0, (DI)(AX*1); \
	MOVUPS X1, 16(DI)(AX*1); \
	ADDQ $32, AX; \
	DECQ CX; \
	JNZ loop; \
done: \
	RET

// func addVVSSE(o, x, y []float32)
TEXT ·addVVSSE(SB), NOSPLIT, $0-72
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), DX
	VV(ADDPS)

// func addVSSSE(o, x []float32, y float32)
TEXT ·addVSSSE(SB), NOSPLIT, $0-52
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVSS y+48(FP), X4
	VS(ADDPS)

// func addSVSSE(o []float32, x float32, y []float32)
TEXT ·addSVSSE(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVSS x+24(FP), X4
	MOVQ y_base+32(FP), DX
	SV(ADDPS)

// func mulVVSSE(o, x, y []float32)
TEXT ·mulVVSSE(SB), NOSPLIT, $0-72
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), DX
	VV(MULPS)

// func mulVSSSE(o, x []float32, y float32)
TEXT ·mulVSSSE(SB), NOSPLIT, $0-52
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVSS y+48(FP), X4
	VS(MULPS)

// func mulSVSSE(o []float32, x float32, y []float32)
TEXT ·mulSVSSE(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVSS x+24(FP), X4
	MOVQ y_base+32(FP), DX
	SV(MULPS)

// func reluSSE(o, x []float32)
TEXT ·reluSSE(SB), NOSPLIT, $0-48
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	XORPS X4, X4
	VS(MAXPS)

// func normAffineSSE(o, x []float32, s, m, inv, b float32)
//
// o[i] = s·(x[i]−m)·inv + b, GroupNorm's last pass, each operation
// rounded on its own in the scalar definition's order: x[i]−m, s times
// that with s the left operand (copied into X0/X1 each iteration, as SV
// does), times inv, plus b.
TEXT ·normAffineSSE(SB), NOSPLIT, $0-64
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVSS s+48(FP), X4
	MOVSS m+52(FP), X5
	MOVSS inv+56(FP), X6
	MOVSS b+60(FP), X7
	SHUFPS $0, X4, X4
	SHUFPS $0, X5, X5
	SHUFPS $0, X6, X6
	SHUFPS $0, X7, X7
	XORQ AX, AX
	SHRQ $3, CX
	JZ done

loop:
	MOVUPS (SI)(AX*1), X2
	MOVUPS 16(SI)(AX*1), X3
	SUBPS X5, X2
	SUBPS X5, X3
	MOVAPS X4, X0
	MOVAPS X4, X1
	MULPS X2, X0
	MULPS X3, X1
	MULPS X6, X0
	MULPS X6, X1
	ADDPS X7, X0
	ADDPS X7, X1
	MOVUPS X0, (DI)(AX*1)
	MOVUPS X1, 16(DI)(AX*1)
	ADDQ $32, AX
	DECQ CX
	JNZ loop

done:
	RET
