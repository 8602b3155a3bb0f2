//go:build !amd64

package kernels

// Off amd64 there is no vector exp or erf: every element takes the
// scalar definitions, and vecExp, vecErf and exp512, which only tests
// set, change nothing.
var vecExp, vecErf, exp512 = false, false, false

func expRow(dst, row []float32, maxV float32, sum float64) float64 {
	return expRowGo(dst, row, maxV, sum)
}

// expRows runs expRowGo over each of the len(x)/inner rows of x, at
// most four, row r against maxV[r] and continuing sum[r].
func expRows(dst, x []float32, inner int64, maxV *[4]float32, sum *[4]float64) {
	for r := int64(0); r < int64(len(x))/inner; r++ {
		sum[r] = expRowGo(dst[r*inner:(r+1)*inner], x[r*inner:(r+1)*inner], maxV[r], sum[r])
	}
}

var sigmoidRow, siluRow, geluRow = sigmoidRowGo, siluRowGo, geluRowGo

// scaleRow multiplies every element of dst by s.
func scaleRow(dst []float32, s float32) {
	for i := range dst {
		dst[i] *= s
	}
}
