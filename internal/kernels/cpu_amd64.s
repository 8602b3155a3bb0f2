#include "textflag.h"

// func cpuProbe() (avx, avx2, fma, avx512 bool)
//
// CPUID leaf 1 ECX: bit 27 OSXSAVE (XGETBV is usable), bit 28 AVX,
// bit 12 FMA. XGETBV with ECX = 0 reads XCR0, whose bits 1 and 2 say the
// OS saves the SSE and the upper-YMM state across context switches;
// without both, no feature is reported. CPUID leaf 7 (sub-leaf 0) EBX
// bit 5 is AVX2 and bit 16 AVX-512F, read only when leaf 0 says leaf 7
// exists; AVX-512F is reported only when XCR0 bits 5-7 also say the OS
// saves the opmask and the ZMM state.
TEXT ·cpuProbe(SB), NOSPLIT, $0-4
	MOVB $0, avx+0(FP)
	MOVB $0, avx2+1(FP)
	MOVB $0, fma+2(FP)
	MOVB $0, avx512+3(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	MOVL AX, R8
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R9
	ANDL $0x08000000, CX
	JZ done
	XORL CX, CX
	XGETBV
	MOVL AX, R10
	ANDL $6, AX
	CMPL AX, $6
	JNE done
	MOVL R9, AX
	SHRL $28, AX
	ANDL $1, AX
	MOVB AX, avx+0(FP)
	MOVL R9, AX
	SHRL $12, AX
	ANDL $1, AX
	MOVB AX, fma+2(FP)
	CMPL R8, $7
	JB done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, AX
	SHRL $5, AX
	ANDL $1, AX
	MOVB AX, avx2+1(FP)
	ANDL $0xE6, R10
	CMPL R10, $0xE6
	JNE done
	SHRL $16, BX
	ANDL $1, BX
	MOVB BX, avx512+3(FP)

done:
	RET
