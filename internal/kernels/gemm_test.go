package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The differential oracle for the one GEMM loop nest. MatMul, the Gemm op
// and im2col Conv (float32 and packed filter) are held bit-identical, at every thread budget, to two
// references that share no code with it: a naive p-ascending triple loop
// and a direct convolution.

var gemmBudgets = []int{1, 2, 3, 8, 64}

// SetTile512 switches the AVX-512 strip walk on or off and returns a func
// that restores the previous setting. Switching on where the CPU probe
// reports no AVX-512 leaves it off. (Exported for the kernels_test
// package.)
func SetTile512(on bool) (restore func()) {
	prev := tile512
	tile512 = on && tile512Selected
	return func() { tile512 = prev }
}

// tile512Selected is tile512 as package init chose it.
var tile512Selected = tile512

// forTile512Modes runs f with the AVX-512 strip walk as selected and,
// when that is on, once more with it off, so that an AVX-512 CPU still
// covers the 4×16 and 4×8 tiles and the row loop's column tails.
func forTile512Modes(f func(wide bool)) {
	modes := []bool{false}
	if tile512Selected {
		modes = []bool{true, false}
	}
	for _, wide := range modes {
		func() {
			defer SetTile512(wide)()
			f(wide)
		}()
	}
}

// refGemm is the naive ijp triple loop: each c[i,j] accumulates its k
// products in ascending p from zero, each product rounded before it is
// added (the conversion forbids a fused multiply-add).
func refGemm(a, b []float32, m, k, n int64, c []float32) {
	for i := int64(0); i < m; i++ {
		for j := int64(0); j < n; j++ {
			var acc float32
			for p := int64(0); p < k; p++ {
				acc += float32(a[i*k+p] * b[p*n+j])
			}
			c[i*n+j] = acc
		}
	}
}

// refConvDirect is the direct convolution: each output element
// accumulates its in-bounds taps in (ic, kh, kw) order — the order of
// im2col's patch rows — and then takes the bias.
func refConvDirect(x, w, bias *tensor.Tensor, a conv2dArgs) *tensor.Tensor {
	out := tensor.New(tensor.Float32, a.n, a.cout, a.outH, a.outW)
	coutPerGroup := a.cout / a.group
	for b := int64(0); b < a.n; b++ {
		for c := int64(0); c < a.cout; c++ {
			g := c / coutPerGroup
			for oh := int64(0); oh < a.outH; oh++ {
				for ow := int64(0); ow < a.outW; ow++ {
					var acc float32
					for ic := int64(0); ic < a.cinPerGroup; ic++ {
						inC := g*a.cinPerGroup + ic
						for kh := int64(0); kh < a.kh; kh++ {
							ih := oh*a.strideH - a.padT + kh*a.dilH
							if ih < 0 || ih >= a.h {
								continue
							}
							for kw := int64(0); kw < a.kw; kw++ {
								iw := ow*a.strideW - a.padL + kw*a.dilW
								if iw < 0 || iw >= a.w {
									continue
								}
								acc += float32(x.F[((b*a.cin+inC)*a.h+ih)*a.w+iw] *
									w.F[((c*a.cinPerGroup+ic)*a.kh+kh)*a.kw+kw])
							}
						}
					}
					if bias != nil {
						acc += bias.F[c]
					}
					out.F[((b*a.cout+c)*a.outH+oh)*a.outW+ow] = acc
				}
			}
		}
	}
	return out
}

// diffMatMul holds MatMul(x, y) to refGemm per broadcast batch entry.
func diffMatMul(t *testing.T, x, y *tensor.Tensor) {
	t.Helper()
	bx, by := x.Shape[:x.Rank()-2], y.Shape[:y.Rank()-2]
	m, k, n := x.Shape[x.Rank()-2], x.Shape[x.Rank()-1], y.Shape[y.Rank()-1]
	batch, err := tensor.BroadcastShapes(bx, by)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.New(tensor.Float32, append(append([]int64{}, batch...), m, n)...)
	for bi := int64(0); bi < tensor.NumElems(batch); bi++ {
		xo := refBroadcastIndex(bx, batch, bi) * m * k
		yo := refBroadcastIndex(by, batch, bi) * k * n
		refGemm(x.F[xo:xo+m*k], y.F[yo:yo+k*n], m, k, n, want.F[bi*m*n:(bi+1)*m*n])
	}
	forTile512Modes(func(wide bool) {
		for _, threads := range gemmBudgets {
			sameBits(t, fmt.Sprint("MatMul ", x.Shape, y.Shape, " threads ", threads, " tile512 ", wide),
				runOp(t, "MatMul", nil, threads, x, y), want)
		}
	})
}

// diffGemmOp holds the Gemm op to alpha·op(A)·op(B) + beta·C computed
// element by element through the transposes.
func diffGemmOp(t *testing.T, transA, transB bool, alpha, beta float32, a, b, c *tensor.Tensor) {
	t.Helper()
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	at := func(i, p int64) float32 { return a.F[i*k+p] }
	if transA {
		m, k = k, m
		at = func(i, p int64) float32 { return a.F[p*m+i] }
	}
	bt := func(p, j int64) float32 { return b.F[p*n+j] }
	if transB {
		n = b.Shape[0]
		bt = func(p, j int64) float32 { return b.F[j*k+p] }
	}
	want := tensor.New(tensor.Float32, m, n)
	for i := int64(0); i < m; i++ {
		for j := int64(0); j < n; j++ {
			var acc float32
			for p := int64(0); p < k; p++ {
				acc += at(i, p) * bt(p, j)
			}
			acc *= alpha
			if c != nil && beta != 0 {
				acc += beta * c.F[refBroadcastIndex(c.Shape, want.Shape, i*n+j)]
			}
			want.F[i*n+j] = acc
		}
	}
	attrs := map[string]graph.AttrValue{
		"alpha": graph.FloatAttr(float64(alpha)), "beta": graph.FloatAttr(float64(beta)),
		"transA": graph.IntAttr(btoi(transA)), "transB": graph.IntAttr(btoi(transB)),
	}
	in := []*tensor.Tensor{a, b}
	if c != nil {
		in = append(in, c)
	}
	forTile512Modes(func(wide bool) {
		for _, threads := range gemmBudgets {
			tag := fmt.Sprint("Gemm ", a.Shape, b.Shape, " transA ", transA, " transB ", transB,
				" alpha ", alpha, " beta ", beta, " bias ", c != nil, " threads ", threads, " tile512 ", wide)
			sameBits(t, tag, runOp(t, "Gemm", attrs, threads, in...), want)
		}
	})
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// diffConv holds Conv(x, w[, bias]) to refConvDirect; a packed w is
// compared against the reference on its dequantized values.
func diffConv(t *testing.T, attrs map[string]graph.AttrValue, x, w, bias *tensor.Tensor) {
	t.Helper()
	node := &graph.Node{Name: "t", OpType: "Conv", Attrs: attrs}
	a, err := convArgsFor(node, x, w)
	if err != nil {
		t.Fatal(err)
	}
	want := refConvDirect(x, dequantIfNeeded(w), bias, a)
	in := []*tensor.Tensor{x, w}
	if bias != nil {
		in = append(in, bias)
	}
	forTile512Modes(func(wide bool) {
		for _, threads := range gemmBudgets {
			sameBits(t, fmt.Sprint("Conv ", x.Shape, w.Shape, w.DType, attrs, " threads ", threads, " tile512 ", wide),
				runOp(t, "Conv", attrs, threads, in...), want)
		}
	})
}

func TestGemmDifferential(t *testing.T) {
	t.Run("MatMul", func(t *testing.T) {
		rng := tensor.NewRNG(31)
		// 0- and 1-extents, tails either side of 32, and extents large
		// enough that the row grain admits several stripes.
		extents := []int64{0, 1, 2, 3, 7, 31, 32, 33, 64, 97}
		pick := func() int64 { return extents[rng.Intn(len(extents))] }
		batches := [][2][]int64{
			{{}, {}}, {{3}, {}}, {{}, {3}}, {{2, 3}, {3}}, {{2, 1}, {1, 3}}, {{2, 1, 3}, {4, 1}}, {{0}, {1}},
		}
		for iter := 0; iter < 120; iter++ {
			m, k, n := pick(), pick(), pick()
			bp := batches[0]
			if iter%3 == 0 {
				bp = batches[rng.Intn(len(batches))]
			}
			diffMatMul(t,
				randTensor(rng, tensor.Float32, append(append([]int64{}, bp[0]...), m, k)),
				randTensor(rng, tensor.Float32, append(append([]int64{}, bp[1]...), k, n)))
		}
	})
	t.Run("BlockSeams", func(t *testing.T) {
		// Gemm on a dirty C: every column count 0-65 (zero, one and two
		// 4×32 tiles, each followed by every masked tail of the AVX-512
		// walk, and every % 16 and % 8 tail of the 4×16 and 4×8 tiles
		// with and without an assembly prefix), one either side of a
		// gemmNC block and several blocks, against every k % 4 and a k
		// of zero, which must still clear C; row counts below, at and
		// either side of one and two register-tile groups of four.
		rng := tensor.NewRNG(34)
		ns := []int64{gemmNC - 1, gemmNC, gemmNC + 1, 2*gemmNC + 13, 3 * gemmNC}
		for n := int64(0); n <= 65; n++ {
			ns = append(ns, n)
		}
		var walks []string
		forTile512Modes(func(wide bool) {
			walks = append(walks, map[bool]string{true: "the AVX-512 strip walk", false: "the per-tile walk"}[wide])
		})
		t.Logf("column walks run: %v", walks)
		for _, n := range ns {
			for k := int64(0); k <= 9; k++ {
				for _, m := range []int64{0, 1, 3, 4, 5, 7, 8, 9} {
					a, b := randTensor(rng, tensor.Float32, []int64{m, k}), randTensor(rng, tensor.Float32, []int64{k, n})
					want := tensor.New(tensor.Float32, m, n)
					refGemm(a.F, b.F, m, k, n, want.F)
					forTile512Modes(func(wide bool) {
						got := randTensor(rng, tensor.Float32, []int64{m, n})
						Gemm(a.F, b.F, m, k, n, got.F)
						sameBits(t, fmt.Sprint("Gemm ", m, k, n, " tile512 ", wide), got, want)
					})
				}
			}
		}
		// Through MatMul, wide enough that the budget stripes rows of a
		// multi-block product.
		for _, n := range []int64{gemmNC - 1, gemmNC + 1, 2*gemmNC + 13} {
			diffMatMul(t, randTensor(rng, tensor.Float32, []int64{2, 9, 7}), randTensor(rng, tensor.Float32, []int64{7, n}))
		}
	})
	t.Run("Epilogue", func(t *testing.T) {
		// A fused MatMul's scale, bias and activation at every column
		// tail 0-65 and either side of a gemmNC block, on row counts
		// either side of a strip of four, with a float32 and a packed
		// int8 B, unbatched and batched.
		rng := tensor.NewRNG(36)
		ns := []int64{gemmNC - 1, gemmNC + 1, 2*gemmNC + 13}
		for n := int64(0); n <= 65; n++ {
			ns = append(ns, n)
		}
		for i, n := range ns {
			for _, m := range []int64{1, 4, 5, 9} {
				c := epCases[(i+int(m))%len(epCases)]
				k := int64(1 + rng.Intn(40))
				b := randTensor(rng, tensor.Float32, []int64{k, n})
				a := randTensor(rng, tensor.Float32, []int64{m, k})
				if m == 9 {
					a = randTensor(rng, tensor.Float32, []int64{2, 3, m, k})
				}
				diffMatMulEpilogue(t, rng, c, a, b)
				if n == 0 {
					continue // no weight to pack
				}
				bq, err := tensor.Quantize(b, tensor.Int8, 0)
				if err != nil {
					t.Fatal(err)
				}
				diffMatMulEpilogue(t, rng, c, a, bq)
			}
		}
		for _, c := range epCases {
			diffMatMulEpilogue(t, rng, c, randTensor(rng, tensor.Float32, []int64{0, 3}), randTensor(rng, tensor.Float32, []int64{3, 5}))
			diffMatMulEpilogue(t, rng, c, randTensor(rng, tensor.Float32, []int64{5, 0}), randTensor(rng, tensor.Float32, []int64{0, 7}))
		}
	})
	t.Run("GemmOp", func(t *testing.T) {
		rng := tensor.NewRNG(32)
		for _, sh := range [][3]int64{{5, 4, 6}, {1, 7, 1}, {0, 3, 2}, {3, 0, 2}, {33, 40, 65}} {
			m, k, n := sh[0], sh[1], sh[2]
			for _, transA := range []bool{false, true} {
				for _, transB := range []bool{false, true} {
					as, bs := []int64{m, k}, []int64{k, n}
					if transA {
						as = []int64{k, m}
					}
					if transB {
						bs = []int64{n, k}
					}
					a, b := randTensor(rng, tensor.Float32, as), randTensor(rng, tensor.Float32, bs)
					for _, alpha := range []float32{1, -0.75} {
						for _, beta := range []float32{1, 0.5, 0} {
							diffGemmOp(t, transA, transB, alpha, beta, a, b, nil)
							for _, cs := range [][]int64{{}, {n}, {1, n}, {m, 1}, {m, n}} {
								diffGemmOp(t, transA, transB, alpha, beta, a, b, randTensor(rng, tensor.Float32, cs))
							}
						}
					}
				}
			}
		}
	})
	t.Run("Conv", func(t *testing.T) {
		rng := tensor.NewRNG(33)
		// (cin, cout, group): plain, grouped, depthwise, and a cout wide
		// enough to stripe.
		channels := [][3]int64{{3, 4, 1}, {4, 6, 2}, {4, 4, 4}, {6, 6, 3}, {1, 5, 1}, {3, 16, 1}}
		for iter := 0; iter < 150; iter++ {
			ch := channels[rng.Intn(len(channels))]
			cin, cout, group := ch[0], ch[1], ch[2]
			one := func(lo, n int) int64 { return int64(lo + rng.Intn(n)) }
			kh, kw := one(1, 3), one(1, 3)
			attrs := map[string]graph.AttrValue{
				"strides":   graph.IntsAttr(one(1, 3), one(1, 3)),
				"dilations": graph.IntsAttr(one(1, 2), one(1, 2)),
				"pads":      graph.IntsAttr(one(0, 3), one(0, 3), one(0, 3), one(0, 3)),
				"group":     graph.IntAttr(group),
			}
			x := randTensor(rng, tensor.Float32, []int64{one(1, 2), cin, one(5, 16), one(5, 16)})
			w := randTensor(rng, tensor.Float32, []int64{cout, cin / group, kh, kw})
			var bias *tensor.Tensor
			if rng.Intn(2) == 0 {
				bias = randTensor(rng, tensor.Float32, []int64{cout})
			}
			diffConv(t, attrs, x, w, bias)
		}
	})
	t.Run("ConvPanelSeams", func(t *testing.T) {
		rng := tensor.NewRNG(35)
		for _, tc := range []struct {
			name                string
			x, w                []int64 // [n, cin, h, w], [cout, cin/group, kh, kw]
			strides, dils, pads []int64
			group               int64
		}{
			// outH·outW one under, at and one over gemmNC, then several
			// panels with a short last one.
			{"511 columns", []int64{1, 3, 73, 7}, []int64{5, 3, 1, 1}, nil, nil, nil, 1},
			{"512 columns", []int64{1, 3, 16, 32}, []int64{5, 3, 3, 3}, nil, nil, []int64{1, 1, 1, 1}, 1},
			{"513 columns", []int64{1, 3, 19, 27}, []int64{5, 3, 3, 3}, nil, nil, []int64{1, 1, 1, 1}, 1},
			{"outW 30 does not divide gemmNC", []int64{2, 4, 40, 30}, []int64{6, 2, 3, 3}, nil, nil, []int64{1, 1, 1, 1}, 2},
			{"depthwise over several panels", []int64{1, 4, 50, 24}, []int64{4, 1, 3, 3}, nil, nil, []int64{1, 1, 1, 1}, 4},
			// One output row per panel, each wider than a GEMM block.
			{"outW over gemmNC", []int64{1, 2, 4, gemmNC + 9}, []int64{3, 2, 3, 3}, nil, nil, []int64{1, 1, 1, 1}, 1},
			{"outW over gemmNC, stride 2", []int64{1, 2, 5, 2*gemmNC + 40}, []int64{3, 2, 3, 2}, []int64{2, 2}, nil, []int64{0, 1, 1, 0}, 1},
			// k % 4 = 1, 2, 3, 0 through cin·kh·kw.
			{"k 5", []int64{1, 5, 30, 30}, []int64{4, 5, 1, 1}, nil, nil, nil, 1},
			{"k 6", []int64{1, 1, 30, 30}, []int64{4, 1, 2, 3}, nil, nil, nil, 1},
			{"k 27", []int64{1, 3, 30, 30}, []int64{4, 3, 3, 3}, nil, nil, []int64{1, 1, 1, 1}, 1},
			{"k 8", []int64{1, 2, 30, 30}, []int64{4, 2, 2, 2}, nil, nil, nil, 1},
			// Strides, dilation and pads wide enough that whole panel rows
			// are padding: rows above and below the image, and a tap whose
			// every column falls outside it.
			{"stride 2, tall pads", []int64{1, 2, 20, 40}, []int64{3, 2, 3, 3}, []int64{2, 2}, nil, []int64{7, 0, 9, 3}, 1},
			{"stride 3, dilation 2", []int64{1, 2, 33, 47}, []int64{3, 2, 3, 3}, []int64{3, 3}, []int64{2, 2}, []int64{2, 5, 4, 1}, 1},
			{"stride 1x3, a tap all padding", []int64{1, 1, 80, 2}, []int64{2, 1, 1, 3}, []int64{1, 3}, nil, []int64{0, 7, 0, 30}, 1},
			{"dilation 3, pads wider than the image", []int64{2, 2, 6, 5}, []int64{2, 2, 3, 3}, nil, []int64{3, 3}, []int64{12, 14, 13, 15}, 1},
		} {
			attrs := map[string]graph.AttrValue{"group": graph.IntAttr(tc.group)}
			for name, v := range map[string][]int64{"strides": tc.strides, "dilations": tc.dils, "pads": tc.pads} {
				if v != nil {
					attrs[name] = graph.IntsAttr(v...)
				}
			}
			x, w := randTensor(rng, tensor.Float32, tc.x), randTensor(rng, tensor.Float32, tc.w)
			bias := randTensor(rng, tensor.Float32, tc.w[:1])
			wq, err := tensor.Quantize(w, tensor.Int8, tc.w[1]*tc.w[2]*tc.w[3])
			if err != nil {
				t.Fatal(tc.name, err)
			}
			diffConv(t, attrs, x, w, nil)
			diffConv(t, attrs, x, w, bias)
			diffConv(t, attrs, x, wq, bias)
		}
		// No output channel: several panels' worth of plane, nothing to write.
		diffConv(t, nil, randTensor(rng, tensor.Float32, []int64{1, 2, 40, 40}), tensor.New(tensor.Float32, 0, 2, 3, 3), nil)
	})
}

// An all-zero filter tap times a NaN activation is NaN on both tiers:
// the packed filter runs the float32 core on its dequantized rows, with
// no skip of a zero weight.
func TestConvQuantZeroWeightKeepsNaN(t *testing.T) {
	rng := tensor.NewRNG(36)
	x := randTensor(rng, tensor.Float32, []int64{1, 2, 6, 6})
	x.F[6*6+14] = float32(math.NaN())
	w := randTensor(rng, tensor.Float32, []int64{3, 2, 3, 3})
	for oc := 0; oc < 3; oc++ {
		for tap := 9; tap < 18; tap++ { // every tap on the NaN's channel
			w.F[oc*18+tap] = 0
		}
	}
	wq, err := tensor.Quantize(w, tensor.Int8, 18)
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]graph.AttrValue{"pads": graph.IntsAttr(1, 1, 1, 1)}
	got := runOp(t, "Conv", attrs, 1, x, wq)
	sameBits(t, "int8 vs f32 Conv", got, runOp(t, "Conv", attrs, 1, x, wq.Dequantize()))
	nans := 0
	for _, v := range got.F {
		if v != v {
			nans++
		}
	}
	if nans != 3*9 {
		t.Errorf("%d NaN outputs, want the 9 windows over the NaN on each of 3 channels", nans)
	}
}

// The exact-shape cases earlier PRs pinned, each now a call into the
// differential above.

func TestGemmVariantsAgree(t *testing.T) {
	rng := tensor.NewRNG(5)
	diffMatMul(t, tensor.RandomFloats(rng, 1, 17, 23), tensor.RandomFloats(rng, 1, 23, 9))
}

func TestGemmParallelAgrees(t *testing.T) {
	rng := tensor.NewRNG(19)
	diffMatMul(t, tensor.RandomFloats(rng, 1, 37, 19), tensor.RandomFloats(rng, 1, 19, 23))
}

func TestGemmParallelTinyMatrixFallsBack(t *testing.T) {
	// m < threads must not deadlock or drop rows.
	a := tensor.FromFloats([]int64{1, 2}, []float32{1, 2})
	b := tensor.FromFloats([]int64{2, 1}, []float32{3, 4})
	diffMatMul(t, a, b)
	if c := runOp(t, "MatMul", nil, 8, a, b); c.F[0] != 11 {
		t.Errorf("c = %v", c.F)
	}
}

func TestConvVariantsAgree(t *testing.T) {
	rng := tensor.NewRNG(7)
	x := tensor.RandomFloats(rng, 1, 1, 3, 8, 8)
	w := tensor.RandomFloats(rng, 1, 4, 3, 3, 3)
	attrs := map[string]graph.AttrValue{"pads": graph.IntsAttr(1, 1, 1, 1), "strides": graph.IntsAttr(2, 2)}
	diffConv(t, attrs, x, w, nil)
	if got := runOp(t, "Conv", attrs, 1, x, w); !tensor.SameShape(got.Shape, []int64{1, 4, 4, 4}) {
		t.Fatalf("conv shape %v", got.Shape)
	}
}

func TestConvParallelDirectAgrees(t *testing.T) {
	rng := tensor.NewRNG(23)
	x := tensor.RandomFloats(rng, 1, 1, 3, 9, 9)
	w := tensor.RandomFloats(rng, 1, 8, 3, 3, 3)
	diffConv(t, map[string]graph.AttrValue{"pads": graph.IntsAttr(1, 1, 1, 1)}, x, w, nil)
}

func TestConvParallelGroupedFallsBack(t *testing.T) {
	rng := tensor.NewRNG(29)
	x := tensor.RandomFloats(rng, 1, 1, 4, 6, 6)
	w := tensor.RandomFloats(rng, 1, 4, 1, 3, 3)
	diffConv(t, map[string]graph.AttrValue{"pads": graph.IntsAttr(1, 1, 1, 1), "group": graph.IntAttr(4)}, x, w, nil)
}

// The int8-packed small filter (cin·kh·kw < 32) that used to dequantize
// and take a direct loop runs the packed im2col path like any other.
func TestConvKernelQuantizedDirectVariant(t *testing.T) {
	rng := tensor.NewRNG(15)
	x := tensor.RandomFloats(rng, 1, 1, 2, 7, 7)
	w := tensor.RandomFloats(rng, 1, 4, 2, 1, 1)
	wq, err := tensor.Quantize(w, tensor.Int8, 2)
	if err != nil {
		t.Fatal(err)
	}
	diffConv(t, nil, x, wq, nil)
}

// A sequential Conv allocates its output, its panel scratch and its
// attribute lookups — nothing per group and nothing for the GEMM (the
// benchmark's allocs_per_req is gated at 2 %; a stripe closure per
// depthwise group moved it by 3 %).
func TestConvAllocsIndependentOfGroups(t *testing.T) {
	rng := tensor.NewRNG(37)
	x := tensor.RandomFloats(rng, 1, 1, 8, 16, 16)
	allocs := func(w *tensor.Tensor, group int64) float64 {
		n := &graph.Node{Name: "c", OpType: "Conv", Attrs: map[string]graph.AttrValue{
			"pads": graph.IntsAttr(1, 1, 1, 1), "group": graph.IntAttr(group)}}
		in := []*tensor.Tensor{x, w}
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(n, in, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, depthwise := allocs(tensor.RandomFloats(rng, 1, 8, 8, 3, 3), 1), allocs(tensor.RandomFloats(rng, 1, 8, 1, 3, 3), 8)
	if plain != depthwise || plain > 6 {
		t.Errorf("allocations per Conv: plain %v, depthwise (8 groups) %v, want equal and at most 6", plain, depthwise)
	}
}

// fixedDest hands out the same preallocated output and scratch storage
// on every call, so a call through it allocates only what the kernel
// itself does.
type fixedDest struct{ out, scratch []float32 }

func (d *fixedDest) Out(_ int, n int64) []float32 { return d.out[:n] }
func (d *fixedDest) Scratch(n int64) []float32    { return d.scratch[:n] }

// A kernel call into a Dest allocates what the heap call does minus the
// payloads the Dest provides — the output, and the scratch of Conv's
// panels, of MatMul with a packed B and of MaxPool's row passes —
// so the Ctx, the Dest and Out box nothing and close over nothing: what
// is left of an output is its Tensor header and shape.
func TestDestAllocatesOnlyTheHeader(t *testing.T) {
	rng := tensor.NewRNG(41)
	w := tensor.RandomFloats(rng, 1, 8, 8, 3, 3)
	wq, err := tensor.Quantize(w, tensor.Int8, 8*3*3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandomFloats(rng, 1, 1, 8, 16, 16)
	bq, err := tensor.Quantize(tensor.RandomFloats(rng, 1, 16, 24), tensor.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	conv := map[string]graph.AttrValue{"pads": graph.IntsAttr(1, 1, 1, 1)}
	for _, tc := range []struct {
		op       string
		attrs    map[string]graph.AttrValue
		in       []*tensor.Tensor
		payloads float64
	}{
		{"Conv", conv, []*tensor.Tensor{x, w}, 2},
		{"Conv", conv, []*tensor.Tensor{x, wq}, 2},
		{"MatMul", nil, []*tensor.Tensor{tensor.RandomFloats(rng, 1, 2, 9, 16), tensor.RandomFloats(rng, 1, 16, 24)}, 1},
		{"MatMul", nil, []*tensor.Tensor{tensor.RandomFloats(rng, 1, 2, 9, 16), bq}, 2},
		{"Add", nil, []*tensor.Tensor{tensor.RandomFloats(rng, 1, 4, 64), tensor.RandomFloats(rng, 1, 64)}, 1},
		{"Relu", nil, []*tensor.Tensor{tensor.RandomFloats(rng, 1, 4, 64)}, 1},
		{"Softmax", nil, []*tensor.Tensor{tensor.RandomFloats(rng, 1, 4, 64)}, 1},
		{"MaxPool", map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(5, 5), "pads": graph.IntsAttr(2, 2, 2, 2)},
			[]*tensor.Tensor{x}, 2},
		{"Reshape", nil, []*tensor.Tensor{tensor.RandomFloats(rng, 1, 4, 64), tensor.FromInts([]int64{2}, []int64{16, 16})}, 1},
	} {
		n := mkNode(tc.op, tc.attrs, 1)
		d := &fixedDest{out: make([]float32, 1<<14), scratch: make([]float32, 1<<16)}
		allocs := func(c *Ctx) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := Run(n, tc.in, c); err != nil {
					t.Fatal(err)
				}
			})
		}
		heap, dest := allocs(nil), allocs(&Ctx{Threads: 1, Dest: d})
		if heap-dest != tc.payloads {
			t.Errorf("%s %v: %v allocations into the heap, %v into a Dest; want %v fewer",
				tc.op, tc.in[1%len(tc.in)].DType, heap, dest, tc.payloads)
		}
	}
}
