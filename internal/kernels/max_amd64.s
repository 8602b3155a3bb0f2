#include "textflag.h"

// The max bodies (max_amd64.go), AVX2, eight float32 lanes. In Go
// operand order VMAXPS acc, x, acc writes acc = x > acc ? x : acc per
// lane: MAXPS returns its second source whenever the compare is false,
// NaN in either operand and equal values (±0 included). That is the
// scalar `if v > best { best = v }`, lane by lane, so a lane that folds
// its values in the scalar loop's order keeps the scalar loop's value
// bit for bit. Every accumulator starts at −Inf, which no NaN replaces.
//
// Each TEXT block loads its own arguments, so that go vet checks the
// frame against the Go declaration. VZEROUPPER precedes every RET that
// follows a YMM instruction.

DATA maxconst<>+0(SB)/4, $0xff800000
GLOBL maxconst<>(SB), RODATA|NOPTR, $4

// func maxRowAVX(x []float32) float32
//
// The largest value of x, len(x) a multiple of eight: four 8-lane
// accumulators over 32 elements per iteration, one over the last
// groups of eight, then a reduction across lanes. The value is the
// scalar loop's; which of +0 and −0 a zero maximum has is not, and
// maxRow fixes it.
TEXT ·maxRowAVX(SB), NOSPLIT, $0-28
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VBROADCASTSS maxconst<>(SB), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX

row32:
	CMPQ AX, DX
	JGE row8
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y5, Y1
	VMAXPS Y2, Y6, Y2
	VMAXPS Y3, Y7, Y3
	ADDQ $32, AX
	JMP row32

row8:
	CMPQ AX, CX
	JGE reduce
	VMOVUPS (SI)(AX*4), Y4
	VMAXPS Y0, Y4, Y0
	ADDQ $8, AX
	JMP row8

reduce:
	VMAXPS Y1, Y0, Y0
	VMAXPS Y3, Y2, Y2
	VMAXPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0xB1, X0, X1
	VMAXPS X1, X0, X0
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

// func maxFoldAVX(dst, x []float32)
//
// dst[i] = x[i] > dst[i] ? x[i] : dst[i], len(dst) a multiple of eight
// and x at least as long.
TEXT ·maxFoldAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	XORQ AX, AX

fold:
	CMPQ AX, CX
	JGE folddone
	VMOVUPS (SI)(AX*4), Y0
	VMAXPS (DI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP fold

folddone:
	VZEROUPPER
	RET

// func maxTaps1AVX(dst, src []float32, k int)
//
// dst[i] = the fold of src[i], src[i+1], …, src[i+k−1] from −Inf, in
// that order: len(dst) a multiple of eight, k ≥ 1 and
// len(src) ≥ len(dst)+k−1.
TEXT ·maxTaps1AVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ k+48(FP), DX
	VBROADCASTSS maxconst<>(SB), Y3
	XORQ AX, AX

group1:
	CMPQ AX, CX
	JGE done1
	VMOVAPS Y3, Y0
	LEAQ (SI)(AX*4), R8
	MOVQ DX, R9

tap1:
	VMOVUPS (R8), Y1
	VMAXPS Y0, Y1, Y0
	ADDQ $4, R8
	DECQ R9
	JNZ tap1
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP group1

done1:
	VZEROUPPER
	RET

// func maxTaps2AVX(dst, src []float32, k int)
//
// dst[i] = the fold of src[2i], src[2i+1], …, src[2i+k−1] from −Inf,
// in that order: len(dst) a multiple of eight, k ≥ 1 and
// len(src) ≥ 2·len(dst)+k−1. Each tap loads 16 floats and keeps the
// even ones as gather2AVX2 does (gather_amd64.s); the odd ones it
// drops are where the one float past 2·len(dst)+k−2 comes from.
TEXT ·maxTaps2AVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ k+48(FP), DX
	VBROADCASTSS maxconst<>(SB), Y3
	XORQ AX, AX

group2:
	CMPQ AX, CX
	JGE done2
	VMOVAPS Y3, Y0
	LEAQ (SI)(AX*8), R8
	MOVQ DX, R9

tap2:
	VMOVUPS (R8), Y1
	VMOVUPS 32(R8), Y2
	VSHUFPS $0x88, Y2, Y1, Y1
	VPERMPD $0xD8, Y1, Y1
	VMAXPS Y0, Y1, Y0
	ADDQ $4, R8
	DECQ R9
	JNZ tap2
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP group2

done2:
	VZEROUPPER
	RET
