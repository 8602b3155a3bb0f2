package kernels

// axpy4 runs the 4-lane body over the largest multiple of eight
// elements and the Go body over the rest. Both round each product and
// each sum to float32 in the same order, so where the split falls does
// not change a bit of c.
func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(c) &^ 7
	if n > 0 {
		axpy4SSE(c[:n], b0[:n], b1[:n], b2[:n], b3[:n], a0, a1, a2, a3)
	}
	if n < len(c) {
		axpy4Go(c[n:], b0[n:], b1[n:], b2[n:], b3[n:], a0, a1, a2, a3)
	}
}

// axpy4SSE is axpy4Go over len(c) elements, which must be a multiple of
// eight; b0..b3 must be at least as long (axpy_amd64.s).
//
//go:noescape
func axpy4SSE(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
