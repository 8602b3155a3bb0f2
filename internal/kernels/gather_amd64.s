#include "textflag.h"

// func gather2AVX2(dst, src []float32)
//
// dst[i] = src[2·i] for every i of dst, eight outputs per iteration:
// two 8-float loads, VSHUFPS $0x88 keeps the even floats of each 128-bit
// lane (s0 s2 s8 s10 | s4 s6 s12 s14) and VPERMPD $0xD8 swaps the middle
// two float pairs into order. Shuffles move bits without looking at
// them, so every float, NaN payloads included, arrives unchanged.
// len(dst) must be a multiple of eight and src must hold 2·len(dst)
// floats (gather_amd64.go).
TEXT ·gather2AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $3, CX
	JZ done

loop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y2
	VPERMPD $0xD8, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ loop
	VZEROUPPER

done:
	RET
