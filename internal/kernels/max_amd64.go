package kernels

// vecMax selects the AVX2 max bodies (max_amd64.s) under Softmax's and
// LogSoftmax's max pass and MaxPool's windows: on when the CPU probe
// reports AVX2. Each lane folds its values in the scalar loop's order
// with the scalar loop's rule, so no self-check is needed. Tests clear
// it to compare the two paths.
var vecMax = hasAVX2

// maxRow is maxRowGo(x): the vector body over the longest multiple of
// eight elements, the scalar fold over the rest. The lanes and their
// reduction find the largest value but not which zero the scalar loop
// keeps of a +0/−0 tie, so a zero maximum is the row's first zero —
// what the scalar loop keeps, since everything before it is below it
// or NaN. Every other value has one bit pattern.
func maxRow(x []float32) float32 {
	if !vecMax {
		return maxRowGo(x)
	}
	n := len(x) &^ 7
	best := maxRowAVX(x[:n])
	for _, v := range x[n:] {
		if v > best {
			best = v
		}
	}
	if best == 0 {
		for _, v := range x {
			if v == 0 {
				return v
			}
		}
	}
	return best
}

// maxFold is maxFoldGo(dst, x): the vector body over the longest
// multiple of eight elements, the scalar fold over the rest.
func maxFold(dst, x []float32) {
	n := 0
	if vecMax {
		n = len(dst) &^ 7
		maxFoldAVX(dst[:n], x[:n])
	}
	maxFoldGo(dst[n:], x[n:len(dst)])
}

// maxTaps folds the window taps of the leading outputs of one padded
// pool row, dst[ow] = max of row[ow·sw : ow·sw+kw] from −Inf in tap
// order, for stride 1 or 2 and whole groups of eight outputs whose loads
// stay in row, and returns how many it wrote; maxPoolPlane folds the
// rest. kw ≥ 1 and row holds every tap of dst's windows. The reslices
// are the bounds checks the assembly does not make.
func maxTaps(dst, row []float32, sw, kw int64) int64 {
	if !vecMax {
		return 0
	}
	var n int64
	switch sw {
	case 1:
		n = min(int64(len(dst)), int64(len(row))-kw+1) &^ 7
		maxTaps1AVX(dst[:n], row[:n+kw-1], int(kw))
	case 2:
		n = min(int64(len(dst)), (int64(len(row))-kw+1)/2) &^ 7
		maxTaps2AVX(dst[:n], row[:2*n+kw-1], int(kw))
	}
	return n
}

// The vector bodies (max_amd64.s) need AVX2; the lengths they take are
// documented there.

//go:noescape
func maxRowAVX(x []float32) float32

//go:noescape
func maxFoldAVX(dst, x []float32)

//go:noescape
func maxTaps1AVX(dst, src []float32, k int)

//go:noescape
func maxTaps2AVX(dst, src []float32, k int)
