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

// vecErf selects the vector Gelu (exp_amd64.s), which computes math.Erf
// on four lanes. Its exps are the vector exp's, so it needs vecExp; and
// it follows erf.go with every product rounded before its sum, so it is
// bit-identical to math.Erf only where the compiler built erf.go that
// way. go1.24 does at every GOAMD64 level; a toolchain that fused
// erf.go's x*y+z into FMAs would build a different math.Erf, and the
// one-time self-check against math.Erf on erfCheckInputs refuses the
// body wherever the two differ. Tests set it to compare the two paths.
var vecErf = vecExp && erfSelfCheck()

// exp512 selects the eight-lane exp bodies (exp_amd64.s), EXP4 on ZMM
// registers under expRows, Sigmoid and Silu: on when vecExp holds, the
// CPU probe reports AVX-512F, and the exp self-check, run once more
// through the eight-lane core (expAVX512), agrees with math.Exp bit for
// bit. A group of eight they stop at, and a row's last four columns,
// fall to the four-lane bodies. Tests clear it to cover the four-lane
// bodies on such a CPU.
var exp512 = vecExp && hasAVX512 && selfCheck(expCheckInputs(), expAVX512, math.Exp)

// expCheckInputs is the self-check's table: −0.001·i for i < 1024,
// where math.Exp's FMA and non-FMA branches disagree on about one input
// in nine (the first is i = 52), then 256 points spread over the whole
// range the bodies accept. Its length is a multiple of eight.
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
func expSelfCheck() bool { return selfCheck(expCheckInputs(), expAVX, math.Exp) }

// selfCheck reports whether body(dst, x) writes ref of every element of
// x, bit for bit; len(x) must be a multiple of the body's width.
func selfCheck(x []float64, body func(dst, x []float64) int, ref func(float64) float64) bool {
	got := make([]float64, len(x))
	if body(got, x) != len(x) {
		return false
	}
	for i, v := range x {
		if math.Float64bits(got[i]) != math.Float64bits(ref(v)) {
			return false
		}
	}
	return true
}

// erfCheckInputs is the Gelu self-check's table: ±0, ±Inf, each of
// erf.go's interval boundaries 2⁻²⁸, 0.84375, 1.25, 1/0.35 and 6 with its
// neighbours an ulp either side, four inputs in each of the first three
// polynomial intervals where a fused multiply-add changes math.Erf's
// result (TestErfSelfCheck checks that they do), and 511 points spread
// over (−6.5, 6.5). Over [1/0.35, 6) erf rounds to within an ulp of 1,
// and no sampled input tells the two builds apart. Its length is a
// multiple of four.
func erfCheckInputs() []float64 {
	x := []float64{0, math.Inf(1),
		0.028739729879221, 0.05455671481427976, 0.08728314774048815, 0.13373144569051706,
		0.8437504062487813, 0.8441655925032225, 0.8716133851598445, 0.8737405037784887,
		1.253034276611456, 1.4999919285956427, 1.754739378639007, 2.2287904564857732}
	for _, b := range []float64{1.0 / (1 << 28), 0.84375, 1.25, 1 / 0.35, 6} {
		x = append(x, math.Nextafter(b, 0), b, math.Nextafter(b, 7))
	}
	for i := 1; i <= 511; i++ {
		x = append(x, float64(i)*(6.5/512))
	}
	for i, n := 0, len(x); i < n; i++ {
		x = append(x, -x[i])
	}
	return x
}

// erfSelfCheck reports whether the vector erf computes math.Erf, bit
// for bit, on every input of erfCheckInputs.
func erfSelfCheck() bool { return selfCheck(erfCheckInputs(), erfAVX, math.Erf) }

// expRow is expRowGo: the vector body takes the groups of four from the
// left until one has an argument it leaves to math.Exp, the scalar
// definition takes that group, and the body resumes after it; the
// scalar definition finishes the row's last len(row) % 4 elements. Both
// add each exp to the running sum in index order, so the sum is the
// scalar loop's bit for bit.
func expRow(dst, row []float32, maxV float32, sum float64) float64 {
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

// expRows runs expRowGo over each of the len(x)/inner rows of x, at
// most four, row r against maxV[r] and continuing sum[r]. Four rows go
// through the interleaved bodies, one row per lane, from the left: by
// 4×8 blocks when exp512 holds, and a block that body stops at, like a
// last four columns, by the 4×4 body; a 4×4 block that one stops at
// takes expRowGo row by row, and each row's last inner % 4 columns,
// like fewer than four rows, take expRow. Every row's exps are added to
// its sum in column order throughout. The reslices are the bounds
// checks the assembly does not make.
func expRows(dst, x []float32, inner int64, maxV *[4]float32, sum *[4]float64) {
	rows, j := int64(len(x))/inner, int64(0)
	if vecExp && rows == 4 {
		n := inner &^ 3
		for j < n {
			end := n
			if exp512 {
				n8 := j + (n-j)&^7
				if j += int64(expRows4AVX512(dst[j:3*inner+n8], x[j:3*inner+n8], int(inner), int(n8-j), maxV, sum)); j == n {
					break
				}
				end = min(j+8, n)
			}
			j += int64(expRows4AVX(dst[j:3*inner+end], x[j:3*inner+end], int(inner), int(end-j), maxV, sum))
			if j < end {
				for r := int64(0); r < 4; r++ {
					at := r*inner + j
					sum[r] = expRowGo(dst[at:at+4], x[at:at+4], maxV[r], sum[r])
				}
				j += 4
			}
		}
	}
	for r := int64(0); r < rows; r++ {
		sum[r] = expRow(dst[r*inner+j:(r+1)*inner], x[r*inner+j:(r+1)*inner], maxV[r], sum[r])
	}
}

func sigmoidRow(o, x []float32) { mapVec(vecExp, o, x, sigmoidRowAVX512, sigmoidRowAVX, sigmoidRowGo) }
func siluRow(o, x []float32)    { mapVec(vecExp, o, x, siluRowAVX512, siluRowAVX, siluRowGo) }
func geluRow(o, x []float32)    { mapVec(vecErf, o, x, nil, geluRowAVX, geluRowGo) }

// mapVec maps x onto o as expRows walks a row: when on, the eight-lane
// body wide (when exp512 holds and there is one) over groups of eight,
// the four-lane body avx over a group it stops at and over the last
// four, scalar over a group of four that one stops at; scalar over the
// tail.
func mapVec(on bool, o, x []float32, wide, avx func(o, x []float32) int, scalar func(o, x []float32)) {
	o = o[:len(x)]
	i := 0
	if on {
		n := len(x) &^ 3
		for i < n {
			end := n
			if wide != nil && exp512 {
				n8 := i + (n-i)&^7
				if i += wide(o[i:n8], x[i:n8]); i == n {
					break
				}
				end = min(i+8, n)
			}
			if i += avx(o[i:end], x[i:end]); i < end {
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
//   - expRows4AVX: expRowAVX on four rows at once, a stride apart, with
//     their maxima and sums (exp_amd64.s); it takes n columns.
//   - sigmoidRowAVX, siluRowAVX: sigmoid and silu of each element.
//
// The eight-lane bodies need AVX-512F too and take groups of eight
// (len(x), or n, a multiple of eight): expAVX512, expRows4AVX512 (4×8
// blocks), sigmoidRowAVX512 and siluRowAVX512 are the bodies above on
// eight lanes.
//
// The vector erf bodies stop before the first group with a NaN instead:
//
//   - erfAVX: dst[i] = math.Erf(x[i]).
//   - geluRowAVX: gelu of each element.

//go:noescape
func expAVX(dst, x []float64) int

//go:noescape
func expRowAVX(dst, row []float32, maxV float32, sum float64) (n int, s float64)

//go:noescape
func expRows4AVX(dst, x []float32, stride, n int, maxV *[4]float32, sum *[4]float64) int

//go:noescape
func sigmoidRowAVX(o, x []float32) int

//go:noescape
func siluRowAVX(o, x []float32) int

//go:noescape
func erfAVX(dst, x []float64) int

//go:noescape
func geluRowAVX(o, x []float32) int

//go:noescape
func expAVX512(dst, x []float64) int

//go:noescape
func expRows4AVX512(dst, x []float32, stride, n int, maxV *[4]float32, sum *[4]float64) int

//go:noescape
func sigmoidRowAVX512(o, x []float32) int

//go:noescape
func siluRowAVX512(o, x []float32) int
