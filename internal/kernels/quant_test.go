package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// GemmQuant is the float32 GEMM on B's unpacked values, bit for bit:
// refGemm(A·diag(Scales), float32(codes)), the products (a·scale)·code
// in ascending p. The shapes cover m % 4 ≠ 0, n off the 8/16/32 tile
// widths, n past gemmNC (two column blocks), k = 0 and m = 0; the
// activations include ±0, NaN and ±Inf, and one scale is zero. Output
// and scratch start as NaN, so an element read before it is written, or
// left unwritten, shows.
func TestGemmQuantMatchesDequantGemm(t *testing.T) {
	rng := tensor.NewRNG(11)
	shapes := []struct{ m, k, n int64 }{
		{1, 64, 33}, {8, 96, 40}, {17, 33, 5}, {6, 40, 48}, {13, 32, 128}, {5, 24, gemmNC + 88},
		{3, 0, 7}, {0, 9, 7},
	}
	for _, s := range shapes {
		a := tensor.RandomFloats(rng, 1, s.m, s.k)
		plantSpecials(a.F, s.k)
		bq, err := tensor.Quantize(tensor.RandomFloats(rng, 1, s.k, s.n), tensor.Int8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.k > 2 {
			bq.Q.Scales[2] = 0
		}
		as := make([]float32, s.m*s.k)
		for i := range as {
			as[i] = a.F[i] * bq.Q.Scales[int64(i)%s.k]
		}
		codes := make([]float32, s.k*s.n)
		for i, c := range bq.Q.Data {
			codes[i] = float32(int8(c))
		}
		want := make([]float32, s.m*s.n)
		refGemm(as, codes, s.m, s.k, s.n, want)
		forTile512Modes(func(wide bool) {
			got := nans(s.m * s.n)
			GemmQuant(bq.Q, a.F, s.m, s.k, s.n, got, nans(gemmQuantScratch(s.k, s.n)), epilogue{})
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%dx%dx%d tile512 %v elem %d: got %g want %g", s.m, s.k, s.n, wide, i, got[i], want[i])
				}
			}
		})
	}
}

// plantSpecials puts +0, −0, NaN, +Inf and −Inf into rows 0 to 4 of a
// k-column A (those that exist), the i-th of them at column 3i mod k.
func plantSpecials(a []float32, k int64) {
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1))}
	for i, v := range specials {
		if row := int64(i); k > 0 && (row+1)*k <= int64(len(a)) {
			a[row*k+int64(3*i)%k] = v
		}
	}
}

// A corrupted row scale makes its dequantized B row NaN, and 0·NaN is
// NaN: a zero A element must not hide the fault from the non-finite
// output check (the float32 tier is what serves it).
func TestGemmQuantKeepsNaNScale(t *testing.T) {
	rng := tensor.NewRNG(15)
	m, k, n := int64(3), int64(8), int64(40)
	a := tensor.RandomFloats(rng, 1, m, k)
	for i := int64(0); i < m; i++ {
		a.F[i*k+5] = 0
	}
	bq, err := tensor.Quantize(tensor.RandomFloats(rng, 1, k, n), tensor.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	bq.Q.Scales[5] = float32(math.NaN()) // poisons B row 5
	c := make([]float32, m*n)
	GemmQuant(bq.Q, a.F, m, k, n, c, make([]float32, gemmQuantScratch(k, n)), epilogue{})
	for i := int64(0); i < m; i++ {
		if v := c[i*n]; v == v {
			t.Errorf("C[%d,0] = %v, want the poisoned row's NaN", i, v)
		}
	}
}

func TestGemmQuantLHSMatchesDequant(t *testing.T) {
	rng := tensor.NewRNG(12)
	m, k, n := int64(12), int64(50), int64(21)
	w := tensor.RandomFloats(rng, 1, m, k)
	b := tensor.RandomFloats(rng, 1, k, n)
	wq, err := tensor.Quantize(w, tensor.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, m*n)
	refGemm(wq.Dequantize().F, b.F, m, k, n, want)
	// On the shared core the result is Gemm's on the dequantized
	// filter, bit for bit.
	scratch := make([]float32, 4*k)
	got := make([]float32, m*n)
	GemmQuantLHS(wq.Q, 0, m, scratch, b.F, n, got, n, n)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("elem %d: got %g want %g", i, got[i], want[i])
		}
	}
	// Stripe subset into a wider C: rows [3,12), two groups of four
	// and a one-row tail, and columns [5,n) of B.
	ldc := n + 3
	sub := make([]float32, 9*ldc)
	GemmQuantLHS(wq.Q, 3, 12, scratch, b.F[5:], n, sub, ldc, n-5)
	for i := int64(0); i < 9; i++ {
		for j := int64(0); j < n-5; j++ {
			if math.Float32bits(sub[i*ldc+j]) != math.Float32bits(want[(3+i)*n+5+j]) {
				t.Fatalf("stripe elem %d,%d mismatch", i, j)
			}
		}
	}
}

func runOp(t *testing.T, op string, attrs map[string]graph.AttrValue, threads int, in ...*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	return runBoth(t, &graph.Node{Name: "t", OpType: op, Attrs: attrs}, in, threads)[0]
}

// MatMul with a packed B is the float MatMul on B's unpacked operands,
// bit for bit, batched (the budget stripes entries) and unbatched (it
// stripes rows in groups of four), at thread budgets 1 and 4:
// MatMul(A·diag(Scales), codes).
func TestMatMulKernelQuantized(t *testing.T) {
	rng := tensor.NewRNG(13)
	b := tensor.RandomFloats(rng, 1, 48, 37)
	bq, err := tensor.Quantize(b, tensor.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	codes := tensor.New(tensor.Float32, b.Shape...)
	for i, c := range bq.Q.Data {
		codes.F[i] = float32(int8(c))
	}
	for _, a := range []*tensor.Tensor{tensor.RandomFloats(rng, 1, 2, 9, 48), tensor.RandomFloats(rng, 1, 30, 48)} {
		as := tensor.New(tensor.Float32, a.Shape...)
		for i := range as.F {
			as.F[i] = a.F[i] * bq.Q.Scales[i%48]
		}
		want := runOp(t, "MatMul", nil, 1, as, codes)
		for _, threads := range []int{1, 4} {
			got := runOp(t, "MatMul", nil, threads, a, bq)
			sameBits(t, fmt.Sprint("A", a.Shape, " threads ", threads), got, want)
		}
	}
}

func TestConvKernelQuantized(t *testing.T) {
	rng := tensor.NewRNG(14)
	x := tensor.RandomFloats(rng, 1, 1, 8, 9, 9)
	w := tensor.RandomFloats(rng, 1, 6, 8, 3, 3)
	bias := tensor.RandomFloats(rng, 1, 6)
	attrs := map[string]graph.AttrValue{"pads": graph.IntsAttr(1, 1, 1, 1)}
	wq, err := tensor.Quantize(w, tensor.Int8, 8*3*3)
	if err != nil {
		t.Fatal(err)
	}
	want := runOp(t, "Conv", attrs, 1, x, wq.Dequantize(), bias)
	for _, threads := range []int{1, 3} {
		got := runOp(t, "Conv", attrs, threads, x, wq, bias)
		if !tensor.AllClose(got, want, 1e-3) {
			t.Fatalf("threads=%d: quantized Conv diverges from dequantized reference", threads)
		}
	}
}

func TestElementwiseQuantized(t *testing.T) {
	rng := tensor.NewRNG(16)
	x := tensor.RandomFloats(rng, 1, 5, 40)
	y := tensor.RandomFloats(rng, 1, 5, 40)
	yq, err := tensor.Quantize(y, tensor.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"Add", "Mul", "Sub"} {
		want := runOp(t, op, nil, 1, x, yq.Dequantize())
		if got := runOp(t, op, nil, 1, x, yq); !tensor.AllClose(got, want, 1e-4) {
			t.Fatalf("%s fused row-wise path diverges", op)
		}
		if got := runOp(t, op, nil, 1, yq, x); !tensor.AllClose(got, runOp(t, op, nil, 1, yq.Dequantize(), x), 1e-4) {
			t.Fatalf("%s quantized-LHS path diverges", op)
		}
	}
	// Broadcast shapes fall back to unpacking.
	row := tensor.RandomFloats(rng, 1, 40)
	rq, err := tensor.Quantize(row, tensor.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := runOp(t, "Add", nil, 1, x, rq.Dequantize())
	if got := runOp(t, "Add", nil, 1, x, rq); !tensor.AllClose(got, want, 1e-4) {
		t.Fatal("broadcast quantized Add diverges")
	}
}

// Benchmarks: the f32 baselines vs dequant-on-the-fly quantized loops
// per MVC shape class. The quantized win comes from streaming 4x fewer
// weight bytes on memory-bound shapes (skinny/GEMV-like), which
// is exactly the regime MVC routes to the packed variants.
func benchGemm(b *testing.B, m, k, n int64, format tensor.DType) {
	defer func() { b.ReportMetric(float64(2*m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s") }()
	rng := tensor.NewRNG(21)
	a := tensor.RandomFloats(rng, 1, m, k)
	w := tensor.RandomFloats(rng, 1, k, n)
	c := make([]float32, m*n)
	if format == tensor.Float32 {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Gemm(a.F, w.F, m, k, n, c)
		}
		return
	}
	wq, err := tensor.Quantize(w, format, 0)
	if err != nil {
		b.Fatal(err)
	}
	scratch := make([]float32, gemmQuantScratch(k, n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmQuant(wq.Q, a.F, m, k, n, c, scratch, epilogue{})
	}
}

func BenchmarkGemmSkinnyF32(b *testing.B)  { benchGemm(b, 4, 2048, 2048, tensor.Float32) }
func BenchmarkGemmSkinnyInt8(b *testing.B) { benchGemm(b, 4, 2048, 2048, tensor.Int8) }

func BenchmarkGemmRegularF32(b *testing.B)  { benchGemm(b, 256, 256, 256, tensor.Float32) }
func BenchmarkGemmRegularInt8(b *testing.B) { benchGemm(b, 256, 256, 256, tensor.Int8) }

func BenchmarkGemmFatF32(b *testing.B)  { benchGemm(b, 1024, 512, 64, tensor.Float32) }
func BenchmarkGemmFatInt8(b *testing.B) { benchGemm(b, 1024, 512, 64, tensor.Int8) }

// servedGemmShapes are quant-int8's MatMul shapes (m×k×n): three row
// counts across the (k, n) pairs of its weights.
func servedGemmShapes(b *testing.B, format tensor.DType) {
	for _, m := range []int64{122, 243, 400} {
		for _, kn := range [][2]int64{{32, 32}, {32, 128}, {128, 32}} {
			b.Run(fmt.Sprintf("%dx%dx%d", m, kn[0], kn[1]), func(b *testing.B) {
				b.ReportAllocs()
				benchGemm(b, m, kn[0], kn[1], format)
			})
		}
	}
}

func BenchmarkGemmServedF32(b *testing.B)  { servedGemmShapes(b, tensor.Float32) }
func BenchmarkGemmServedInt8(b *testing.B) { servedGemmShapes(b, tensor.Int8) }

func benchConv(b *testing.B, format tensor.DType) {
	rng := tensor.NewRNG(22)
	x := tensor.RandomFloats(rng, 1, 1, 64, 28, 28)
	w := tensor.RandomFloats(rng, 1, 64, 64, 3, 3)
	node := &graph.Node{Name: "c", OpType: "Conv",
		Attrs: map[string]graph.AttrValue{"pads": graph.IntsAttr(1, 1, 1, 1)}}
	win := w
	if format != tensor.Float32 {
		var err error
		win, err = tensor.Quantize(w, format, 64*3*3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(node, []*tensor.Tensor{x, win}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvF32(b *testing.B)  { benchConv(b, tensor.Float32) }
func BenchmarkConvInt8(b *testing.B) { benchConv(b, tensor.Int8) }

// The fused embedding-lookup path: Gather on a row-quantized table must
// dequantize exactly the selected rows and match Gather on the
// dequantized table, including negative and repeated indices.
func TestGatherQuantizedTable(t *testing.T) {
	rng := tensor.NewRNG(13)
	table := tensor.RandomFloats(rng, 1, 40, 64)
	idx := tensor.FromInts([]int64{5}, []int64{0, 39, 7, -1, 7})
	tq, err := tensor.Quantize(table, tensor.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := run1(t, "Gather", nil, tq.Dequantize(), idx)
	got := run1(t, "Gather", nil, tq, idx)
	if got.DType != tensor.Float32 {
		t.Fatalf("gather output dtype %v", got.DType)
	}
	if !tensor.AllClose(got, want, 0) {
		t.Fatal("quantized gather differs from dequantized gather")
	}
	// Out-of-range index must fail identically on the quantized path.
	bad := tensor.FromInts([]int64{1}, []int64{40})
	if _, err := Run(mkNode("Gather", nil, 1), []*tensor.Tensor{tq, bad}, nil); err == nil {
		t.Fatal("out-of-range index on quantized table succeeded")
	}
}

// A quantized table gathered on a non-zero axis takes the dequantize
// fallback and still matches the float result.
func TestGatherQuantizedNonZeroAxis(t *testing.T) {
	rng := tensor.NewRNG(14)
	table := tensor.RandomFloats(rng, 1, 8, 32)
	tq, err := tensor.Quantize(table, tensor.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx := tensor.FromInts([]int64{2}, []int64{1, 30})
	attrs := map[string]graph.AttrValue{"axis": graph.IntAttr(1)}
	want := run1(t, "Gather", attrs, tq.Dequantize(), idx)
	got := run1(t, "Gather", attrs, tq, idx)
	if !tensor.AllClose(got, want, 0) {
		t.Fatal("non-zero-axis gather on quantized table differs")
	}
}
