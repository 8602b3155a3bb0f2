#include "textflag.h"

// func gather2RowsAVX2(dst *float32, dpitch int64, src *float32, spitch, n, rows int64)
//
// dst[r·dpitch+i] = src[r·spitch+2·i] for i < n and r < rows, n and
// rows at least 1. Per row, eight outputs per step while more than eight
// remain: two 8-float loads, VSHUFPS $0x88 keeps the even floats of each
// 128-bit lane (s0 s2 s8 s10 | s4 s6 s12 s14) and VPERMPD $0xD8 swaps
// the middle two float pairs into order. A step's loads end one float
// past its last even source, at most the row's last source float since
// at least one output follows the step; the last 1–8 outputs move one
// MOVL at a time, so nothing reads past src[r·spitch+2·(n−1)]. Shuffles
// and MOVL move bits without looking at them, so every float, NaN
// payloads included, arrives unchanged. The Go side (gather_amd64.go)
// checks the bounds.
TEXT ·gather2RowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dpitch+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ spitch+24(FP), R9
	MOVQ n+32(FP), DX
	MOVQ rows+40(FP), R10
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ -1(DX), BX
	SHRQ $3, BX            // vector steps per row: (n−1)/8
	MOVQ BX, AX
	SHLQ $3, AX
	SUBQ AX, DX            // outputs left after them: 1–8

row:
	MOVQ DI, R11
	MOVQ SI, R12
	MOVQ BX, CX
	TESTQ CX, CX
	JZ tail

vec:
	VMOVUPS (R12), Y0
	VMOVUPS 32(R12), Y1
	VSHUFPS $0x88, Y1, Y0, Y2
	VPERMPD $0xD8, Y2, Y2
	VMOVUPS Y2, (R11)
	ADDQ $64, R12
	ADDQ $32, R11
	DECQ CX
	JNZ vec

tail:
	MOVQ DX, CX

one:
	MOVL (R12), AX
	MOVL AX, (R11)
	ADDQ $8, R12
	ADDQ $4, R11
	DECQ CX
	JNZ one

	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNZ row
	VZEROUPPER
	RET
