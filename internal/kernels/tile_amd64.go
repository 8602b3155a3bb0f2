package kernels

// tile512 selects gemmStripAVX512: on when the CPU probe reports
// AVX-512F. Tests clear it to cover the 4×16 and 4×8 tiles on such a
// CPU.
var tile512 = hasAVX512

// gemmTiles runs the register tiles over C[4,w] = A[4,k] × B[k,w] from
// the left and returns the number of columns it wrote. With tile512 set
// that is all w, in one call: gemmStripAVX512 walks 4×32 tiles and one
// masked tail tile across the strip, so gemmBlock's row loop runs only
// for the last m % 4 rows. Otherwise it makes one call per tile: 4×16
// AVX tiles while 16 columns remain (when the CPU has AVX), then 4×8
// SSE2 tiles while 8 do, and the row loop takes the last w % 8. A tile
// holds its C block in registers over all of k and rounds every product
// and every sum on its own, in ascending p from +0, exactly as axpy4
// does. With k == 0 it writes nothing, so gemmBlock's row loop clears
// those C rows. The reslices are the bounds checks the assembly does
// not make.
func gemmTiles(a, b []float32, ldb int64, c []float32, ldc, k, w int64) int64 {
	if k == 0 {
		return 0
	}
	a, bEnd, cEnd := a[:4*k], (k-1)*ldb, 3*ldc
	if tile512 {
		gemmStripAVX512(a, b[:bEnd+w], ldb, c[:cEnd+w], ldc, k, w)
		return w
	}
	j := int64(0)
	if hasAVX {
		for ; j+16 <= w; j += 16 {
			gemm4x16AVX(a, b[j:bEnd+j+16], ldb, c[j:cEnd+j+16], ldc, k)
		}
	}
	for ; j+8 <= w; j += 8 {
		gemm4x8SSE(a, b[j:bEnd+j+8], ldb, c[j:cEnd+j+8], ldc, k)
	}
	return j
}

// The tile bodies (tile_amd64.s) compute C[4,w], C[4,16] or C[4,8] =
// A[4,k] × B[k,·] with A's rows k apart, B's rows ldb apart and C's rows
// ldc apart. k must be positive; a must hold 4·k values, b (k−1)·ldb
// plus the width, c 3·ldc plus the width. gemmStripAVX512 needs
// AVX-512F, gemm4x16AVX needs AVX.

//go:noescape
func gemmStripAVX512(a, b []float32, ldb int64, c []float32, ldc, k, w int64)

//go:noescape
func gemm4x16AVX(a, b []float32, ldb int64, c []float32, ldc, k int64)

//go:noescape
func gemm4x8SSE(a, b []float32, ldb int64, c []float32, ldc, k int64)
