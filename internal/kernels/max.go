package kernels

import "math"

// The max folds under Softmax's and LogSoftmax's max pass and MaxPool:
// `if v > best { best = v }` in index order, so a NaN is never taken and
// of equal values (−0 and +0 among them) the first stays. Their scalar
// definitions are here and run on every GOARCH; on amd64 the vector
// bodies of max_amd64.go take the bulk of each pass.

// maxRowGo returns the largest value of x, −Inf when x is empty or all
// NaN.
func maxRowGo(x []float32) float32 {
	best := float32(math.Inf(-1))
	for _, v := range x {
		if v > best {
			best = v
		}
	}
	return best
}

// fillNegInf sets every element of s to −Inf, where a fold starts.
func fillNegInf(s []float32) {
	for i := range s {
		s[i] = float32(math.Inf(-1))
	}
}

// maxFoldGo sets dst[i] to x[i] wherever x[i] > dst[i].
func maxFoldGo(dst, x []float32) {
	x = x[:len(dst)]
	for i, v := range x {
		if v > dst[i] {
			dst[i] = v
		}
	}
}
