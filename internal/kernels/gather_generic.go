//go:build !amd64

package kernels

// Off amd64 there is no stride-2 unfold body.
func gather2(dst, src []float32) { gather2Go(dst, src) }
