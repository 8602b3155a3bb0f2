//go:build !amd64

package kernels

// Off amd64 there is no vector exp: every element takes the scalar
// definitions, and vecExp, which only tests set, changes nothing.
var vecExp = false

func expRow(dst, row []float32, maxV float32) float64 { return expRowGo(dst, row, maxV, 0) }

var sigmoidRow, siluRow = sigmoidRowGo, siluRowGo

// scaleRow multiplies every element of dst by s.
func scaleRow(dst []float32, s float32) {
	for i := range dst {
		dst[i] *= s
	}
}
