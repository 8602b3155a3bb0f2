package kernels

// gather2Rows is gather2RowsGo with, on AVX2 hosts, the body
// gather2RowsAVX2 (gather_amd64.s). The two index expressions are the
// bounds checks the assembly does not make: the last row's last output
// and the last source float it reads.
func gather2Rows(dst []float32, dpitch int64, src []float32, spitch, n, rows int64) {
	if n <= 0 || rows <= 0 {
		return
	}
	_ = dst[(rows-1)*dpitch+n-1]
	_ = src[(rows-1)*spitch+2*(n-1)]
	if !hasAVX2 {
		gather2RowsGo(dst, dpitch, src, spitch, n, rows)
		return
	}
	gather2RowsAVX2(&dst[0], dpitch, &src[0], spitch, n, rows)
}

//go:noescape
func gather2RowsAVX2(dst *float32, dpitch int64, src *float32, spitch, n, rows int64)
