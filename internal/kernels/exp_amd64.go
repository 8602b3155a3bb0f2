package kernels

import "math"

// vecExp selects the 4-lane exp bodies (exp_amd64.s). They mirror
// math.Exp's amd64 FMA branch operation for operation, so they are
// bit-identical to it only while math.Exp takes that branch: the CPU
// must have AVX2 and FMA with the YMM state saved, and the one-time
// self-check must agree with math.Exp bit for bit on expCheckInputs —
// which fails when math.Exp runs its non-FMA branch, as under
// GODEBUG=cpu.fma=off or cpu.avx=off. Otherwise every element takes the
// scalar definitions. Tests set it to compare the two paths.
var vecExp = hasAVX2 && hasFMA && expSelfCheck()

// expCheckInputs is the self-check's table: −0.001·i for i < 1024,
// where math.Exp's FMA and non-FMA branches disagree on about one input
// in nine (the first is i = 52), then 256 points spread over the whole
// range the bodies accept. Its length is a multiple of four.
func expCheckInputs() []float64 {
	var x []float64
	for i := 0; i < 1024; i++ {
		x = append(x, -0.001*float64(i))
	}
	for i := 0; i < 256; i++ {
		x = append(x, -708+float64(i)*(1417.0/255))
	}
	return x
}

// expSelfCheck reports whether the vector body computes math.Exp, bit
// for bit, on every input of expCheckInputs.
func expSelfCheck() bool {
	x := expCheckInputs()
	got := make([]float64, len(x))
	if expAVX(got, x) != len(x) {
		return false
	}
	for i, v := range x {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}

// expRow is expRowGo(dst, row, maxV, 0): the vector body takes the
// groups of four from the left until one has an argument it leaves to
// math.Exp, the scalar definition takes that group, and the body
// resumes after it; the scalar definition finishes the row's last
// len(row) % 4 elements. Both add each exp to the running sum in index
// order, so the sum is the scalar loop's bit for bit.
func expRow(dst, row []float32, maxV float32) float64 {
	var sum float64
	i := 0
	if vecExp {
		n := len(row) &^ 3
		for i < n {
			var k int
			k, sum = expRowAVX(dst[i:n], row[i:n], maxV, sum)
			if i += k; i < n {
				sum = expRowGo(dst[i:i+4], row[i:i+4], maxV, sum)
				i += 4
			}
		}
	}
	return expRowGo(dst[i:len(row)], row[i:], maxV, sum)
}

func sigmoidRow(o, x []float32) { mapExp(o, x, sigmoidRowAVX, sigmoidRowGo) }
func siluRow(o, x []float32)    { mapExp(o, x, siluRowAVX, siluRowGo) }

// mapExp maps x onto o as expRow walks a row: the vector body over
// groups of four, scalar over a group it stops at and over the tail.
func mapExp(o, x []float32, avx func(o, x []float32) int, scalar func(o, x []float32)) {
	o = o[:len(x)]
	i := 0
	if vecExp {
		n := len(x) &^ 3
		for i < n {
			if i += avx(o[i:n], x[i:n]); i < n {
				scalar(o[i:i+4], x[i:i+4])
				i += 4
			}
		}
	}
	scalar(o[i:], x[i:])
}

// scaleRow multiplies every element of dst by s: Mul's SSE2 loop over
// the largest multiple of vecWidth elements, then the scalar product.
func scaleRow(dst []float32, s float32) {
	n := len(dst) &^ (vecWidth - 1)
	mulVSSSE(dst[:n], dst[:n], s)
	for i := n; i < len(dst); i++ {
		dst[i] *= s
	}
}

// The vector bodies (exp_amd64.s) need AVX2 and FMA. Each takes groups of
// four elements of x (len(x) must be a multiple of four; dst or o at
// least as long) from the left, stops before the first group with an
// exp argument outside [−708, 709] or NaN, and returns the number of
// elements it wrote.
//
//   - expAVX: dst[i] = math.Exp(x[i]).
//   - expRowAVX: expRowGo's loop, returning the running sum as s.
//   - sigmoidRowAVX, siluRowAVX: sigmoid and silu of each element.

//go:noescape
func expAVX(dst, x []float64) int

//go:noescape
func expRowAVX(dst, row []float32, maxV float32, sum float64) (n int, s float64)

//go:noescape
func sigmoidRowAVX(o, x []float32) int

//go:noescape
func siluRowAVX(o, x []float32) int
