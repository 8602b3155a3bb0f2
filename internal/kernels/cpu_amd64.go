package kernels

// The CPU features the amd64 kernels use beyond the SSE2 baseline, read
// once at package init by cpuProbe, the one CPUID routine the kernels
// have; no flag, environment variable or GODEBUG setting reads or
// overrides them. Each is reported only when the OS also saves the
// register state it needs (XCR0): the upper YMM halves for the first
// three, the ZMM state and the opmasks too for hasAVX512.
//
//   - hasAVX: the 4×16 GEMM tile (tile_amd64.s).
//   - hasAVX2: the stride-2 unfold body (gather_amd64.s) and the max
//     bodies under Softmax and MaxPool (max_amd64.s, vecMax).
//   - hasAVX2 and hasFMA: the vector exp (exp_amd64.s), which also needs
//     its init self-check to agree with math.Exp (vecExp), and the
//     vector erf under Gelu, which needs the exp and its own self-check
//     against math.Erf (vecErf).
//   - hasAVX512 (AVX-512F): the GEMM strip walk, gemmStripAVX512
//     (tile_amd64.s).
var hasAVX, hasAVX2, hasFMA, hasAVX512 = cpuProbe()

// cpuProbe reads CPUID and XCR0 (cpu_amd64.s).
func cpuProbe() (avx, avx2, fma, avx512 bool)
