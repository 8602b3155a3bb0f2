package kernels

// axpy4 is the one primitive under gemmBlock: four rows of B folded into
// a C segment,
//
//	c[j] = (((c[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
//
// with every product and every sum rounded to float32 on its own (no
// fused multiply-add), so a c[j] built from successive calls accumulates
// its products one at a time in call order. b0..b3 must be at least as
// long as c. axpy4Go is the body on every GOARCH; amd64 adds a 4-lane
// one for the bulk of a long segment (axpy_amd64.go).
func axpy4Go(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j, v := range c {
		// The conversions forbid fusing a product into its sum, which the
		// compiler may otherwise do where the target has the instruction.
		v += float32(a0 * b0[j])
		v += float32(a1 * b1[j])
		v += float32(a2 * b2[j])
		v += float32(a3 * b3[j])
		c[j] = v
	}
}

// axpy1 folds one row of B into c — the k % 4 tail of gemmBlock.
func axpy1(c, b []float32, a float32) {
	b = b[:len(c)]
	for j := range c {
		c[j] += float32(a * b[j])
	}
}
