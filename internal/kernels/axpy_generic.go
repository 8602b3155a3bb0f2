//go:build !amd64

package kernels

func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	axpy4Go(c, b0, b1, b2, b3, a0, a1, a2, a3)
}
