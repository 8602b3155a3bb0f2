package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// saltedFloats draws normal samples, replacing one in every `every` on
// average with NaN, ±Inf, ±0, a denormal, ±MaxFloat32 or a signalling
// NaN — the operands on which an assembly body could round or order
// differently from the Go arithmetic it stands in for.
func saltedFloats(rng *tensor.RNG, every int) func() float32 {
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x80000000), 0, math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, math.Float32frombits(0x7fa00001),
	}
	return func() float32 {
		if rng.Intn(every) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat32()
	}
}

// The assembly body must round exactly as the Go body does: every
// length 0-70 (zero to eight 8-lane iterations, every % 8 tail), every
// operand at its own unaligned offset into a larger slice, and operands
// salted with NaN, ±Inf, denormals and −0. Results agree bit for bit, except that a
// NaN only has to meet a NaN: when both inputs of a sum are NaNs x86
// keeps the first operand's payload, and the compiler does not fix the
// operand order of the Go body (two inlinings of it disagree).
func TestAxpyBodiesAgree(t *testing.T) {
	rng := tensor.NewRNG(41)
	val := saltedFloats(rng, 4)
	operand := func(n, off int) []float32 {
		s := make([]float32, off+n+3)
		for i := range s {
			s[i] = val()
		}
		return s[off : off+n]
	}
	same := func(tag string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
				t.Fatalf("%s: c[%d] = %v (%#x) want %v (%#x)", tag, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 8; trial++ {
			c := operand(n, trial%4)
			b0, b1, b2, b3 := operand(n, (trial+1)%4), operand(n, (trial+2)%4), operand(n, (trial+3)%4), operand(n, trial%3)
			a0, a1, a2, a3 := val(), val(), val(), val()
			want := append([]float32{}, c...)
			axpy4Go(want, b0, b1, b2, b3, a0, a1, a2, a3)
			got := append(make([]float32, 1), c...)[1:]
			axpy4(got, b0, b1, b2, b3, a0, a1, a2, a3)
			same(fmt.Sprint("axpy4 len ", n, " trial ", trial), got, want)
			if n%8 == 0 {
				got = append(make([]float32, 3), c...)[3:]
				axpy4SSE(got, b0, b1, b2, b3, a0, a1, a2, a3)
				same(fmt.Sprint("axpy4SSE len ", n, " trial ", trial), got, want)
			}
		}
	}
}
