//go:build !amd64

package kernels

// Off amd64 there is no stride-2 unfold body.
func gather2Rows(dst []float32, dpitch int64, src []float32, spitch, n, rows int64) {
	gather2RowsGo(dst, dpitch, src, spitch, n, rows)
}
