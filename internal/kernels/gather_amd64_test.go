package kernels

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// The stride-2 unfold body moves bits: gather2AVX2 called directly on
// every multiple of eight up to 40 outputs, and gather2 (the body plus
// the scalar tail) on every length 0-40, from sources starting 0-3
// floats into their slice, holding 2n floats or one short of that — the
// last row of a panel whose final tap reads the image's last column.
// Sources are salted with signalling and quiet NaNs of several
// payloads, ±Inf, ±0 and denormals; every output matches the scalar
// loop's bit for bit, and nothing past the n outputs is written.
func TestStride2GatherAgrees(t *testing.T) {
	if !hasAVX2 {
		t.Skip("the CPU probe reports no AVX2: gather2 is the scalar loop")
	}
	val := saltedFloats(tensor.NewRNG(47), 3)
	nans := []uint32{0x7f800001, 0xff812345, 0x7fbfffff, 0x7fc00000, 0xffc0beef}
	const guard = 3
	for n := 0; n <= 40; n++ {
		for off := 0; off <= 3; off++ {
			for _, short := range []bool{false, true} {
				srcLen := 2 * n
				if short && n > 0 {
					srcLen--
				}
				src := make([]float32, off+srcLen)
				for i := range src {
					src[i] = val()
					if i%5 == 0 {
						src[i] = math.Float32frombits(nans[(i/5)%len(nans)])
					}
				}
				src = src[off:]
				want := make([]float32, n)
				for i := range want {
					want[i] = src[2*i]
				}
				bodies := map[string]func(dst []float32){"gather2": func(dst []float32) { gather2(dst, src) }}
				if n%8 == 0 && !short {
					bodies["gather2AVX2"] = func(dst []float32) { gather2AVX2(dst, src) }
				}
				for name, run := range bodies {
					dst := make([]float32, n+guard)
					for i := range dst {
						dst[i] = math.Float32frombits(0xdeadbeef)
					}
					run(dst[:n])
					for i, w := range want {
						if math.Float32bits(dst[i]) != math.Float32bits(w) {
							t.Fatalf("%s n %d off %d short %v: dst[%d] = %#x, want %#x",
								name, n, off, short, i, math.Float32bits(dst[i]), math.Float32bits(w))
						}
					}
					for i := n; i < n+guard; i++ {
						if math.Float32bits(dst[i]) != 0xdeadbeef {
							t.Fatalf("%s n %d off %d short %v: wrote dst[%d] past the %d outputs", name, n, off, short, i, n)
						}
					}
				}
			}
		}
	}
}
