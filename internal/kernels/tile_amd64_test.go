package kernels

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// The register tiles, called directly, against refGemm: every k 1-70
// (odd and even, short and long accumulation chains), B and C rows
// wider than the tile, every operand at an unaligned start, operands
// salted with NaN, ±Inf, ±0, denormals and MaxFloat32, and a dirty C the
// tile must overwrite. Results agree bit for bit, except that a NaN
// only has to meet a NaN (TestAxpyBodiesAgree says why).
func TestGemmTilesAgree(t *testing.T) {
	val := saltedFloats(tensor.NewRNG(43), 6)
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = val()
		}
		return s
	}
	tiles := []struct {
		name  string
		width int64
		body  func(a, b []float32, ldb int64, c []float32, ldc, k int64)
	}{
		{"gemm4x32AVX512", 32, gemm4x32AVX512},
		{"gemm4x16AVX", 16, gemm4x16AVX},
		{"gemm4x8SSE", 8, gemm4x8SSE},
	}
	var ran []string
	for _, tile := range tiles {
		if tile.width == 32 && !hasAVX512 {
			t.Logf("%s skipped: the CPU probe reports no AVX-512", tile.name)
			continue
		}
		if tile.width == 16 && !hasAVX {
			t.Logf("%s skipped: the CPU probe reports no AVX", tile.name)
			continue
		}
		ran = append(ran, tile.name)
		wd := tile.width
		for k := int64(1); k <= 70; k++ {
			for trial := int64(0); trial < 4; trial++ {
				// B's and C's rows are the tile plus 0-3 (and 5-8)
				// columns, and every operand starts 1-3 floats into
				// its slice.
				aOff, bOff, cOff := 1+trial%3, 1+(trial+1)%3, 1+(trial+2)%3
				ldb, ldc := wd+trial, wd+5+trial
				a := fill(int(aOff + 4*k))[aOff:]
				b := fill(int(bOff + k*ldb))[bOff:]
				c := fill(int(cOff + 4*ldc))[cOff:]
				dense := make([]float32, k*wd)
				for p := int64(0); p < k; p++ {
					copy(dense[p*wd:(p+1)*wd], b[p*ldb:])
				}
				want := make([]float32, 4*wd)
				refGemm(a, dense, 4, k, wd, want)
				before := append([]float32{}, c...)
				tile.body(a, b, ldb, c, ldc, k)
				for i := int64(0); i < 4; i++ {
					for j := int64(0); j < ldc; j++ {
						got := c[i*ldc+j]
						if j >= wd {
							// Past the tile's columns C is untouched.
							if math.Float32bits(got) != math.Float32bits(before[i*ldc+j]) {
								t.Fatalf("%s k %d trial %d: wrote c[%d,%d] outside the tile", tile.name, k, trial, i, j)
							}
							continue
						}
						w := want[i*wd+j]
						if math.Float32bits(got) != math.Float32bits(w) && !(got != got && w != w) {
							t.Fatalf("%s k %d trial %d: c[%d,%d] = %v (%#x) want %v (%#x)",
								tile.name, k, trial, i, j, got, math.Float32bits(got), w, math.Float32bits(w))
						}
					}
				}
			}
		}
	}
	t.Logf("tiles checked: %v", ran)
}
