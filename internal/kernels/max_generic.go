//go:build !amd64

package kernels

// Off amd64 there are no max bodies: every max pass and pool window
// takes the scalar folds, and vecMax, which only tests set, changes
// nothing.
var vecMax = false

func maxRow(x []float32) float32 { return maxRowGo(x) }

func maxFold(dst, x []float32) { maxFoldGo(dst, x[:len(dst)]) }

func maxTaps(dst, row []float32, sw, kw int64) int64 { return 0 }
