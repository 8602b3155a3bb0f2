package kernels

// gather2 is gather2Go with the AVX2 body (gather_amd64.s) on the
// longest prefix of whole 8-output groups whose loads stay inside src;
// gather2Go takes the rest. The reslices are the bounds checks the
// assembly does not make.
func gather2(dst, src []float32) {
	n := 0
	if hasAVX2 {
		n = min(len(dst), len(src)/2) &^ 7
		gather2AVX2(dst[:n], src[:2*n])
	}
	gather2Go(dst[n:], src[2*n:])
}

//go:noescape
func gather2AVX2(dst, src []float32)
