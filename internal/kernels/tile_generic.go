//go:build !amd64

package kernels

// Off amd64 there are no register tiles: gemmBlock runs every column
// through its axpy4 row loop, and tile512, which only tests set,
// changes nothing.
var tile512 = false

func gemmTiles(a, b []float32, ldb int64, c []float32, ldc, k, w int64) int64 {
	return 0
}
