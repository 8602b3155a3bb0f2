package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// The register tiles, called directly, against refGemm: the AVX-512
// column walk at every width w 1-70 (whole 4×32 tiles, then both masked
// tails, 1-16 and 17-31 columns, after zero, one and two of them) and
// the 4×16 and 4×8 tiles at their own width, each for every k 1-70 (odd
// and even, short and long accumulation chains); B and C rows wider
// than the columns written, every operand at an unaligned start 1-3
// floats into its slice, operands salted with NaN, ±Inf, ±0, denormals
// and MaxFloat32 (about one in 2k values, so that some outputs stay
// finite at every k), and a dirty C whose canaries past column w of
// every row and past the last row must survive. Results agree bit for
// bit, except that a NaN only has to meet a NaN (TestAxpyBodiesAgree
// says why).
func TestGemmTilesAgree(t *testing.T) {
	rng := tensor.NewRNG(43)
	// agree runs body over C[4,w] = A[4,k] × B[k,w] with the offsets
	// and row strides trial picks.
	// finish, when set, is the epilogue's reference on the [4,w] product.
	agree := func(name string, k, w, trial int64, finish func(want []float32),
		body func(a, b []float32, ldb int64, c []float32, ldc int64)) {
		t.Helper()
		val := saltedFloats(rng, int(2*k))
		fill := func(n int64) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = val()
			}
			return s
		}
		aOff, bOff, cOff := 1+trial%3, 1+(trial+1)%3, 1+(trial+2)%3
		ldb, ldc := w+trial%4, w+1+trial%5
		a := fill(aOff + 4*k)[aOff:]
		b := fill(bOff + k*ldb)[bOff:]
		c := fill(cOff + 4*ldc + 3)[cOff:]
		dense := make([]float32, k*w)
		for p := int64(0); p < k; p++ {
			copy(dense[p*w:(p+1)*w], b[p*ldb:])
		}
		want := make([]float32, 4*w)
		refGemm(a, dense, 4, k, w, want)
		if finish != nil {
			finish(want)
		}
		before := append([]float32{}, c...)
		body(a, b, ldb, c, ldc)
		for x, got := range c {
			i, j := int64(x)/ldc, int64(x)%ldc
			if i >= 4 || j >= w {
				if math.Float32bits(got) != math.Float32bits(before[x]) {
					t.Fatalf("%s k %d w %d trial %d: wrote c[%d,%d] past the strip", name, k, w, trial, i, j)
				}
				continue
			}
			if wv := want[i*w+j]; math.Float32bits(got) != math.Float32bits(wv) && !(got != got && wv != wv) {
				t.Fatalf("%s k %d w %d trial %d: c[%d,%d] = %v (%#x) want %v (%#x)",
					name, k, w, trial, i, j, got, math.Float32bits(got), wv, math.Float32bits(wv))
			}
		}
	}
	var ran []string
	if hasAVX512 {
		ran = append(ran, "gemmStripAVX512")
		for w := int64(1); w <= 70; w++ {
			for k := int64(1); k <= 70; k++ {
				agree("gemmStripAVX512", k, w, w+k, nil, func(a, b []float32, ldb int64, c []float32, ldc int64) {
					gemmStripAVX512(a, b, ldb, c, ldc, k, w)
				})
			}
		}
	} else {
		t.Logf("gemmStripAVX512 skipped: the CPU probe reports no AVX-512")
	}
	tiles := []struct {
		name  string
		width int64
		body  func(a, b []float32, ldb int64, c []float32, ldc, k int64)
	}{
		{"gemm4x16AVX", 16, gemm4x16AVX},
		{"gemm4x8SSE", 8, gemm4x8SSE},
	}
	for _, tile := range tiles {
		if tile.width == 16 && !hasAVX {
			t.Logf("%s skipped: the CPU probe reports no AVX", tile.name)
			continue
		}
		ran = append(ran, tile.name)
		for k := int64(1); k <= 70; k++ {
			for trial := int64(0); trial < 4; trial++ {
				agree(tile.name, k, tile.width, trial, nil, func(a, b []float32, ldb int64, c []float32, ldc int64) {
					tile.body(a, b, ldb, c, ldc, k)
				})
			}
		}
	}
	// gemmBlock over one strip of four rows with each fused epilogue, at
	// every column tail, under whichever tiles cover it (the strip walk,
	// and with it off the 4×16 and 4×8 tiles and the row loop): the
	// epilogue finishes exactly the strip's [4,w] block.
	forTile512Modes(func(wide bool) {
		for w := int64(1); w <= 70; w++ {
			for i, k := range []int64{1, 5, 16, 33} {
				c := epCases[(int(w)+i)%len(epCases)]
				ep, s, bias := c.epOperands(rng, w)
				agree(fmt.Sprint("gemmBlock ", c, " tile512 ", wide), k, w, w+k,
					func(want []float32) { c.refFinish(want, 4, w, w, s, bias) },
					func(a, b []float32, ldb int64, cc []float32, ldc int64) {
						gemmBlock(a, b, ldb, cc, ldc, 4, k, w, ep)
					})
			}
		}
	})
	ran = append(ran, "gemmBlock epilogue")
	t.Logf("tiles checked: %v", ran)
}

// With the AVX-512 walk selected, gemmTiles covers every column of a
// strip, so gemmBlock's row loop runs only for the last m % 4 rows; the
// 4×16 and 4×8 tiles leave it the last w % 8 columns of every strip.
func TestGemmTilesCoverTheStrip(t *testing.T) {
	for _, wide := range []bool{true, false} {
		func() {
			defer SetTile512(wide)()
			for w := int64(0); w <= 70; w++ {
				for _, k := range []int64{0, 1, 8} {
					b, c := make([]float32, k*w+1), make([]float32, 4*w)
					want := w - w%8
					if tile512 {
						want = w
					}
					if k == 0 {
						want = 0
					}
					if got := gemmTiles(make([]float32, 4*k), b, w, c, w, k, w); got != want {
						t.Fatalf("tile512 %v k %d w %d: the tiles wrote %d columns, want %d", tile512, k, w, got, want)
					}
				}
			}
		}()
	}
	t.Logf("tile512 as selected: %v", tile512Selected)
}
