package kernels

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// The stride-2 unfold body moves bits: gather2Rows (the AVX2 body) and
// gather2RowsGo on every row length n 1–40 over 1–3 rows, with sources
// starting 0–3 floats into their slice and rows 2n−1 to 2n+1 floats
// apart, the source ending at the last row's last float read (the last
// row of a panel whose final tap reads the image's last column), and
// output rows n to n+2 floats apart. Sources are salted with signalling
// and quiet NaNs of several payloads, ±Inf, ±0 and denormals; every
// output matches the definition bit for bit, and nothing between the
// rows or past the last one is written.
func TestStride2GatherAgrees(t *testing.T) {
	if !hasAVX2 {
		t.Skip("the CPU probe reports no AVX2: gather2Rows is the scalar loop")
	}
	val := saltedFloats(tensor.NewRNG(47), 3)
	nans := []uint32{0x7f800001, 0xff812345, 0x7fbfffff, 0x7fc00000, 0xffc0beef}
	const guard = 3
	const canary = 0xdeadbeef
	for n := int64(1); n <= 40; n++ {
		for rows := int64(1); rows <= 3; rows++ {
			for off := int64(0); off <= 3; off++ {
				for gap := int64(0); gap <= 2; gap++ {
					spitch, dpitch := 2*n-1+gap, n+gap
					src := make([]float32, off+(rows-1)*spitch+2*(n-1)+1)
					for i := range src {
						src[i] = val()
						if i%5 == 0 {
							src[i] = math.Float32frombits(nans[(i/5)%len(nans)])
						}
					}
					src = src[off:]
					for name, run := range map[string]func(dst []float32){
						"gather2Rows":   func(dst []float32) { gather2Rows(dst, dpitch, src, spitch, n, rows) },
						"gather2RowsGo": func(dst []float32) { gather2RowsGo(dst, dpitch, src, spitch, n, rows) },
					} {
						dst := make([]float32, (rows-1)*dpitch+n+guard)
						for i := range dst {
							dst[i] = math.Float32frombits(canary)
						}
						run(dst[:(rows-1)*dpitch+n])
						for i := range dst {
							r, c := int64(i)/dpitch, int64(i)%dpitch
							want := uint32(canary)
							if r < rows && c < n {
								want = math.Float32bits(src[r*spitch+2*c])
							}
							if got := math.Float32bits(dst[i]); got != want {
								t.Fatalf("%s n %d rows %d off %d gap %d: dst[%d] = %#x, want %#x",
									name, n, rows, off, gap, i, got, want)
							}
						}
					}
				}
			}
		}
	}
}
