package kernels

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func mkNode(op string, attrs map[string]graph.AttrValue, nOut int) *graph.Node {
	if attrs == nil {
		attrs = map[string]graph.AttrValue{}
	}
	outs := make([]string, nOut)
	for i := range outs {
		outs[i] = "o"
	}
	return &graph.Node{Name: "k", OpType: op, Outputs: outs, Attrs: attrs}
}

// run1 runs op into heap outputs and into NaNDest's, which must agree
// bit for bit, and returns its first output.
func run1(t *testing.T, op string, attrs map[string]graph.AttrValue, in ...*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	return runBoth(t, mkNode(op, attrs, 1), in, 1)[0]
}

// runBoth runs n at the thread budget into heap outputs and into
// NaNDest's and returns the heap outputs once the two agree bit for bit.
func runBoth(t *testing.T, n *graph.Node, in []*tensor.Tensor, threads int) []*tensor.Tensor {
	t.Helper()
	out, err := Run(n, in, &Ctx{Threads: threads})
	if err != nil {
		t.Fatalf("%s: %v", n.OpType, err)
	}
	dest, err := Run(n, in, &Ctx{Threads: threads, Dest: NaNDest{}})
	if err != nil {
		t.Fatalf("%s into NaNDest: %v", n.OpType, err)
	}
	if d := OutputDiff(dest, out); d != "" {
		t.Fatalf("%s: NaN destination vs heap: %s", n.OpType, d)
	}
	return out
}

// NaNDest hands out every output and every scratch freshly filled with
// NaN: storage a kernel reads before writing, or leaves partly unwritten,
// shows up in its output. (Exported for the kernels_test package.)
type NaNDest struct{}

func nans(n int64) []float32 {
	f := make([]float32, n)
	for i := range f {
		f[i] = float32(math.NaN())
	}
	return f
}

func (NaNDest) Out(_ int, n int64) []float32 { return nans(n) }
func (NaNDest) Scratch(n int64) []float32    { return nans(n) }

// OutputDiff describes the first way got differs from want, bit for bit
// ("" when it does not).
func OutputDiff(got, want []*tensor.Tensor) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d outputs, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		switch {
		case g.DType != w.DType || !slices.Equal(g.Shape, w.Shape):
			return fmt.Sprintf("output %d is %v%v, want %v%v", i, g.DType, g.Shape, w.DType, w.Shape)
		case !slices.Equal(g.I, w.I) || !slices.Equal(g.B, w.B):
			return fmt.Sprintf("output %d: integer or bool payload differs", i)
		}
		for j := range w.F {
			if math.Float32bits(g.F[j]) != math.Float32bits(w.F[j]) {
				return fmt.Sprintf("output %d element %d: %v, want %v", i, j, g.F[j], w.F[j])
			}
		}
	}
	return ""
}

func TestAddBroadcast(t *testing.T) {
	x := tensor.FromFloats([]int64{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	y := tensor.FromFloats([]int64{3}, []float32{10, 20, 30})
	got := run1(t, "Add", nil, x, y)
	want := tensor.FromFloats([]int64{2, 3}, []float32{11, 22, 33, 14, 25, 36})
	if !tensor.AllClose(got, want, 1e-6) {
		t.Errorf("got %v", got.F)
	}
}

func TestIntArithmetic(t *testing.T) {
	x := tensor.FromInts([]int64{3}, []int64{7, -7, 9})
	y := tensor.FromInts([]int64{3}, []int64{2, 2, 3})
	div := run1(t, "Div", nil, x, y)
	if div.I[0] != 3 || div.I[1] != -4 || div.I[2] != 3 {
		t.Errorf("floor div = %v", div.I)
	}
	mod := run1(t, "Mod", nil, x, y)
	if mod.I[0] != 1 || mod.I[1] != 1 {
		t.Errorf("mod = %v", mod.I)
	}
}

func TestActivations(t *testing.T) {
	x := tensor.FromFloats([]int64{3}, []float32{-1, 0, 2})
	relu := run1(t, "Relu", nil, x)
	if relu.F[0] != 0 || relu.F[2] != 2 {
		t.Errorf("relu = %v", relu.F)
	}
	sig := run1(t, "Sigmoid", nil, x)
	if math.Abs(float64(sig.F[1])-0.5) > 1e-6 {
		t.Errorf("sigmoid(0) = %f", sig.F[1])
	}
	lr := run1(t, "LeakyRelu", map[string]graph.AttrValue{"alpha": graph.FloatAttr(0.1)}, x)
	if math.Abs(float64(lr.F[0])+0.1) > 1e-6 {
		t.Errorf("leakyrelu = %v", lr.F)
	}
	gelu := run1(t, "Gelu", nil, tensor.FromFloats([]int64{1}, []float32{0}))
	if gelu.F[0] != 0 {
		t.Errorf("gelu(0) = %f", gelu.F[0])
	}
}

func TestCompareAndWhere(t *testing.T) {
	x := tensor.FromFloats([]int64{3}, []float32{1, 5, 3})
	y := tensor.FromFloats([]int64{3}, []float32{2, 2, 3})
	gt := run1(t, "Greater", nil, x, y)
	if gt.B[0] || !gt.B[1] || gt.B[2] {
		t.Errorf("greater = %v", gt.B)
	}
	w := run1(t, "Where", nil, gt, x, y)
	if w.F[0] != 2 || w.F[1] != 5 || w.F[2] != 3 {
		t.Errorf("where = %v", w.F)
	}
}

// Mixed operand dtypes are a typed error, not an index panic, and Where
// selects Bool branches like any other.
func TestCompareAndWhereDTypes(t *testing.T) {
	f := tensor.FromFloats([]int64{2}, []float32{1, 2})
	i := tensor.FromInts([]int64{2}, []int64{1, 2})
	c := tensor.FromBools([]int64{2}, []bool{true, false})
	for _, tc := range []struct {
		op string
		in []*tensor.Tensor
	}{
		{"Less", []*tensor.Tensor{f, i}}, {"Greater", []*tensor.Tensor{i, f}}, {"Equal", []*tensor.Tensor{f, c}},
		{"Where", []*tensor.Tensor{c, f, i}}, {"Where", []*tensor.Tensor{f, f, f}}, {"And", []*tensor.Tensor{c, f}},
	} {
		if _, err := Run(mkNode(tc.op, nil, 1), tc.in, nil); err == nil || !strings.Contains(err.Error(), "unsupported dtypes") {
			t.Errorf("%s on mixed dtypes: err = %v, want an unsupported-dtypes error", tc.op, err)
		}
	}
	w := run1(t, "Where", nil, c, tensor.FromBools([]int64{2}, []bool{true, true}), tensor.FromBools([]int64{2}, []bool{false, true}))
	if w.DType != tensor.Bool || !w.B[0] || !w.B[1] {
		t.Errorf("Where over Bool branches = %v", w)
	}
}

func TestCast(t *testing.T) {
	x := tensor.FromFloats([]int64{2}, []float32{1.7, 0})
	i := run1(t, "Cast", map[string]graph.AttrValue{"to": graph.StringAttr("int64")}, x)
	if i.I[0] != 1 || i.I[1] != 0 {
		t.Errorf("cast = %v", i.I)
	}
	b := run1(t, "Cast", map[string]graph.AttrValue{"to": graph.StringAttr("bool")}, x)
	if !b.B[0] || b.B[1] {
		t.Errorf("cast bool = %v", b.B)
	}
}

func TestMatMulBatchBroadcast(t *testing.T) {
	a := tensor.FromFloats([]int64{2, 2, 3}, []float32{1, 0, 0, 0, 1, 0, 2, 0, 0, 0, 2, 0})
	b := tensor.FromFloats([]int64{3, 2}, []float32{1, 2, 3, 4, 5, 6})
	got := run1(t, "MatMul", nil, a, b)
	if !tensor.SameShape(got.Shape, []int64{2, 2, 2}) {
		t.Fatalf("shape %v", got.Shape)
	}
	// first batch picks rows of b; second batch doubles them
	if got.F[0] != 1 || got.F[1] != 2 || got.F[2] != 3 || got.F[3] != 4 {
		t.Errorf("batch0 = %v", got.F[:4])
	}
	if got.F[4] != 2 || got.F[7] != 8 {
		t.Errorf("batch1 = %v", got.F[4:])
	}
}

func TestGemmTransposeAndBias(t *testing.T) {
	a := tensor.FromFloats([]int64{3, 2}, []float32{1, 4, 2, 5, 3, 6}) // transA -> [2,3]
	b := tensor.FromFloats([]int64{3, 4}, []float32{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0})
	c := tensor.FromFloats([]int64{4}, []float32{10, 10, 10, 10})
	got := run1(t, "Gemm", map[string]graph.AttrValue{"transA": graph.IntAttr(1)}, a, b, c)
	if !tensor.SameShape(got.Shape, []int64{2, 4}) {
		t.Fatalf("shape %v", got.Shape)
	}
	if got.F[0] != 11 || got.F[1] != 12 || got.F[2] != 13 || got.F[3] != 10 {
		t.Errorf("row0 = %v", got.F[:4])
	}
}

func TestGroupedConv(t *testing.T) {
	// Depthwise: group == cin, each filter sees one channel.
	x := tensor.FromFloats([]int64{1, 2, 2, 2}, []float32{1, 2, 3, 4, 10, 20, 30, 40})
	w := tensor.FromFloats([]int64{2, 1, 1, 1}, []float32{2, 3})
	got := run1(t, "Conv", map[string]graph.AttrValue{"group": graph.IntAttr(2)}, x, w)
	want := []float32{2, 4, 6, 8, 30, 60, 90, 120}
	for i, v := range want {
		if got.F[i] != v {
			t.Fatalf("depthwise = %v", got.F)
		}
	}
}

func TestConvBias(t *testing.T) {
	x := tensor.FromFloats([]int64{1, 1, 2, 2}, []float32{1, 1, 1, 1})
	w := tensor.FromFloats([]int64{1, 1, 1, 1}, []float32{1})
	b := tensor.FromFloats([]int64{1}, []float32{5})
	got := run1(t, "Conv", nil, x, w, b)
	if got.F[0] != 6 {
		t.Errorf("bias = %v", got.F)
	}
}

func TestPooling(t *testing.T) {
	x := tensor.FromFloats([]int64{1, 1, 2, 2}, []float32{1, 2, 3, 4})
	mx := run1(t, "MaxPool", map[string]graph.AttrValue{
		"kernel_shape": graph.IntsAttr(2, 2), "strides": graph.IntsAttr(2, 2)}, x)
	if mx.F[0] != 4 {
		t.Errorf("maxpool = %v", mx.F)
	}
	av := run1(t, "AveragePool", map[string]graph.AttrValue{
		"kernel_shape": graph.IntsAttr(2, 2), "strides": graph.IntsAttr(2, 2)}, x)
	if av.F[0] != 2.5 {
		t.Errorf("avgpool = %v", av.F)
	}
	gl := run1(t, "GlobalAveragePool", nil, x)
	if !tensor.SameShape(gl.Shape, []int64{1, 1, 1, 1}) || gl.F[0] != 2.5 {
		t.Errorf("global = %v %v", gl.Shape, gl.F)
	}
}

// refPool is the pooling loop MaxPool and AveragePool ran before each
// got its own body: every tap of every window tests its bounds, and both
// modes' state is kept on every in-bounds tap.
func refPool(x *tensor.Tensor, avg bool, kernel, strides, pads []int64) *tensor.Tensor {
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := (H+pads[0]+pads[2]-kernel[0])/strides[0] + 1
	outW := (W+pads[1]+pads[3]-kernel[1])/strides[1] + 1
	out := tensor.New(tensor.Float32, N, C, outH, outW)
	for b := int64(0); b < N; b++ {
		for c := int64(0); c < C; c++ {
			base := (b*C + c) * H * W
			for oh := int64(0); oh < outH; oh++ {
				for ow := int64(0); ow < outW; ow++ {
					var acc float32
					count := int64(0)
					best := float32(math.Inf(-1))
					for kh := int64(0); kh < kernel[0]; kh++ {
						ih := oh*strides[0] - pads[0] + kh
						if ih < 0 || ih >= H {
							continue
						}
						for kw := int64(0); kw < kernel[1]; kw++ {
							iw := ow*strides[1] - pads[1] + kw
							if iw < 0 || iw >= W {
								continue
							}
							v := x.F[base+ih*W+iw]
							acc += v
							count++
							if v > best {
								best = v
							}
						}
					}
					var res float32
					if avg {
						if count > 0 {
							res = acc / float32(count)
						}
					} else {
						res = best
					}
					out.F[((b*C+c)*outH+oh)*outW+ow] = res
				}
			}
		}
	}
	return out
}

// MaxPool and AveragePool match refPool bit for bit: over NaN, ±Inf and
// planes of mixed −0/+0, on windows inside the plane, cut by the
// padding, and wholly in it (−Inf for max, 0 for average). The wide
// planes put each special value at every offset of the max bodies'
// 8- and 16-float loads, under YOLO-V6's 5×5 s1 p2 window and SkipNet's
// 2×2 s2 one, with the vector bodies on and forced off.
func TestPoolMatchesReferenceLoop(t *testing.T) {
	rng := tensor.NewRNG(19)
	x := tensor.RandomFloats(rng, 1, 2, 3, 9, 11)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i, v := range specials {
		x.F[17+41*i] = v
	}
	// Plane (1, 2) is all zeros of both signs, so max must keep the
	// first of equal values and the mean sums signed zeros.
	plane := x.F[5*9*11 : 6*9*11]
	for i := range plane {
		plane[i] = float32(math.Copysign(0, float64(1-2*(i*7%3%2))))
	}
	for _, on := range expModes() {
		restore := SetVecBodies(on)
		for _, tc := range []struct{ kernel, strides, pads []int64 }{
			{[]int64{3, 3}, []int64{2, 2}, []int64{1, 1, 1, 1}},
			{[]int64{2, 2}, []int64{2, 2}, []int64{0, 0, 0, 0}},
			{[]int64{3, 3}, []int64{1, 1}, []int64{1, 1, 1, 1}},
			{[]int64{1, 1}, []int64{1, 1}, []int64{0, 0, 0, 0}},
			{[]int64{2, 3}, []int64{1, 2}, []int64{0, 1, 1, 0}},
			{[]int64{2, 2}, []int64{1, 1}, []int64{3, 3, 3, 3}}, // corner windows wholly in the padding
			{[]int64{3, 2}, []int64{3, 4}, []int64{4, 0, 4, 5}}, // whole rows and columns of them
		} {
			attrs := map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(tc.kernel...),
				"strides": graph.IntsAttr(tc.strides...), "pads": graph.IntsAttr(tc.pads...)}
			for _, avg := range []bool{false, true} {
				op := "MaxPool"
				if avg {
					op = "AveragePool"
				}
				sameBits(t, fmt.Sprint(op, tc, " vector ", on), run1(t, op, attrs, x), refPool(x, avg, tc.kernel, tc.strides, tc.pads))
			}
		}
		// Six planes: one group of four, then two one at a time.
		sameBits(t, "GlobalAveragePool", run1(t, "GlobalAveragePool", nil, x), refGlobalAvg(x))
		for _, w := range []int64{17, 23, 37, 41} {
			x := poolSpecialPlanes(tensor.NewRNG(uint64(w)), 16, w)
			sameBits(t, fmt.Sprint("GlobalAveragePool W ", w), run1(t, "GlobalAveragePool", nil, x), refGlobalAvg(x))
			for _, tc := range []struct{ kernel, strides, pads []int64 }{
				{[]int64{5, 5}, []int64{1, 1}, []int64{2, 2, 2, 2}},
				{[]int64{2, 2}, []int64{2, 2}, []int64{0, 0, 0, 0}},
				{[]int64{3, 3}, []int64{2, 2}, []int64{1, 1, 1, 1}},
				{[]int64{1, 4}, []int64{1, 1}, []int64{0, 3, 0, 2}},
			} {
				attrs := map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(tc.kernel...),
					"strides": graph.IntsAttr(tc.strides...), "pads": graph.IntsAttr(tc.pads...)}
				sameBits(t, fmt.Sprint("MaxPool W ", w, tc, " vector ", on), run1(t, "MaxPool", attrs, x),
					refPool(x, false, tc.kernel, tc.strides, tc.pads))
			}
		}
		restore()
	}
}

// refGlobalAvg is GlobalAveragePool one plane at a time: a float32 sum
// in ascending order, over the plane's size.
func refGlobalAvg(x *tensor.Tensor) *tensor.Tensor {
	plane := x.Shape[2] * x.Shape[3]
	out := tensor.New(tensor.Float32, x.Shape[0], x.Shape[1], 1, 1)
	for i := range out.F {
		var s float32
		for _, v := range x.F[int64(i)*plane : int64(i+1)*plane] {
			s += v
		}
		out.F[i] = s / float32(plane)
	}
	return out
}

// poolSpecialPlanes returns a [1, 7, h, w] tensor whose planes each
// salt one kind of special value at a step coprime to 16, so that over
// 16 steps it lands at every offset of a max body's 8- and 16-float
// loads: NaN among normals; +Inf; −Inf and NaN; +0 and −0 among
// negatives, in either order; NaN and −Inf only; and ±0 with NaN.
func poolSpecialPlanes(rng *tensor.RNG, h, w int64) *tensor.Tensor {
	nan, inf, neg0 := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	x := tensor.New(tensor.Float32, 1, 7, h, w)
	for p := 0; p < 7; p++ {
		plane := x.F[int64(p)*h*w : int64(p+1)*h*w]
		for k := range plane {
			v := rng.NormFloat32()
			switch {
			case p == 0 && k%5 == 0, p == 2 && k%7 == 3, p == 5 && k%2 == 0, p == 6 && k%11 == 0:
				v = nan
			case p == 1 && k%5 == 0:
				v = inf
			case p == 2 && k%5 == 0, p == 5:
				v = -inf
			case p == 3 && k%5 == 0, p == 4 && k%5 == 2:
				v = 0
			case p == 3 && k%3 == 1, p == 4 && k%5 == 0:
				v = neg0
			case p == 6:
				v = float32(math.Copysign(0, float64(1-2*(k*7%3%2))))
			case p >= 3:
				v = -float32(math.Abs(float64(v)))
			}
			plane[k] = v
		}
	}
	return x
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(11)
	x := tensor.RandomFloats(rng, 3, 4, 7)
	s := run1(t, "Softmax", nil, x)
	for r := 0; r < 4; r++ {
		var sum float64
		for c := 0; c < 7; c++ {
			sum += float64(s.F[r*7+c])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %f", r, sum)
		}
	}
}

// A zero-extent normalised axis (an empty sequence) yields the empty
// output, at every thread budget.
func TestNormZeroExtent(t *testing.T) {
	for _, op := range []string{"Softmax", "LogSoftmax", "LayerNormalization"} {
		for _, shape := range [][]int64{{2, 0}, {0, 4}, {2, 3, 0}} {
			for threads := 1; threads <= 2; threads++ {
				out := runOp(t, op, nil, threads, tensor.New(tensor.Float32, shape...))
				if !tensor.SameShape(out.Shape, shape) || len(out.F) != 0 {
					t.Errorf("%s%v = %v", op, shape, out)
				}
			}
		}
	}
}

// An axis outside [-r, r-1] is a typed error naming the op, the axis and
// the rank, never a normalisation over nothing or a slice panic.
func TestLayerNormAxisOutOfRange(t *testing.T) {
	x := tensor.RandomFloats(tensor.NewRNG(14), 1, 3, 4)
	for _, tc := range []struct {
		axis int64
		ok   bool
	}{
		{-2, true}, {-1, true}, {0, true}, {1, true},
		{2, false}, {5, false}, {-3, false}, {-7, false},
	} {
		n := mkNode("LayerNormalization", map[string]graph.AttrValue{"axis": graph.IntAttr(tc.axis)}, 1)
		_, err := Run(n, []*tensor.Tensor{x}, nil)
		var ae *AxisError
		switch {
		case tc.ok && err != nil:
			t.Errorf("axis %d: %v", tc.axis, err)
		case !tc.ok && !errors.As(err, &ae):
			t.Errorf("axis %d: got %v, want an *AxisError", tc.axis, err)
		case !tc.ok && (ae.Op != "LayerNormalization" || ae.Axis != tc.axis || ae.Rank != 2):
			t.Errorf("axis %d: %+v", tc.axis, *ae)
		}
	}
}

func TestLayerNormZeroMeanUnitVar(t *testing.T) {
	rng := tensor.NewRNG(13)
	x := tensor.RandomFloats(rng, 5, 3, 16)
	out := run1(t, "LayerNormalization", nil, x)
	for r := 0; r < 3; r++ {
		var mean, variance float64
		for c := 0; c < 16; c++ {
			mean += float64(out.F[r*16+c])
		}
		mean /= 16
		for c := 0; c < 16; c++ {
			d := float64(out.F[r*16+c]) - mean
			variance += d * d
		}
		variance /= 16
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Errorf("row %d: mean=%f var=%f", r, mean, variance)
		}
	}
}

func TestBatchNorm(t *testing.T) {
	x := tensor.FromFloats([]int64{1, 2, 1, 2}, []float32{1, 2, 3, 4})
	scale := tensor.FromFloats([]int64{2}, []float32{1, 2})
	bias := tensor.FromFloats([]int64{2}, []float32{0, 1})
	mean := tensor.FromFloats([]int64{2}, []float32{1.5, 3.5})
	va := tensor.FromFloats([]int64{2}, []float32{1, 1})
	out := run1(t, "BatchNormalization", nil, x, scale, bias, mean, va)
	if math.Abs(float64(out.F[0])+0.5) > 1e-3 || math.Abs(float64(out.F[2])+0.0) > 1.1 {
		t.Errorf("bn = %v", out.F)
	}
}

func TestMovementOps(t *testing.T) {
	x := tensor.FromFloats([]int64{2, 3}, []float32{1, 2, 3, 4, 5, 6})

	shp := run1(t, "Shape", nil, x)
	if shp.I[0] != 2 || shp.I[1] != 3 {
		t.Errorf("shape = %v", shp.I)
	}

	rs := run1(t, "Reshape", nil, x, tensor.FromInts([]int64{2}, []int64{3, -1}))
	if !tensor.SameShape(rs.Shape, []int64{3, 2}) {
		t.Errorf("reshape = %v", rs.Shape)
	}

	tp := run1(t, "Transpose", nil, x)
	if !tensor.SameShape(tp.Shape, []int64{3, 2}) || tp.F[1] != 4 {
		t.Errorf("transpose = %v %v", tp.Shape, tp.F)
	}

	cc := run1(t, "Concat", map[string]graph.AttrValue{"axis": graph.IntAttr(1)}, x, x)
	if !tensor.SameShape(cc.Shape, []int64{2, 6}) || cc.F[3] != 1 {
		t.Errorf("concat = %v %v", cc.Shape, cc.F)
	}

	g := run1(t, "Gather", nil, x, tensor.FromInts([]int64{1}, []int64{1}))
	if !tensor.SameShape(g.Shape, []int64{1, 3}) || g.F[0] != 4 {
		t.Errorf("gather = %v %v", g.Shape, g.F)
	}

	sl := run1(t, "Slice", nil, x,
		tensor.FromInts([]int64{1}, []int64{1}),
		tensor.FromInts([]int64{1}, []int64{3}),
		tensor.FromInts([]int64{1}, []int64{1}))
	if !tensor.SameShape(sl.Shape, []int64{2, 2}) || sl.F[0] != 2 {
		t.Errorf("slice = %v %v", sl.Shape, sl.F)
	}

	fl := run1(t, "Flatten", nil, tensor.New(tensor.Float32, 2, 3, 4))
	if !tensor.SameShape(fl.Shape, []int64{2, 12}) {
		t.Errorf("flatten = %v", fl.Shape)
	}

	ex := run1(t, "Expand", nil, tensor.FromFloats([]int64{1, 3}, []float32{1, 2, 3}),
		tensor.FromInts([]int64{2}, []int64{2, 3}))
	if !tensor.SameShape(ex.Shape, []int64{2, 3}) || ex.F[3] != 1 {
		t.Errorf("expand = %v %v", ex.Shape, ex.F)
	}
}

func TestSplitKernel(t *testing.T) {
	x := tensor.FromFloats([]int64{2, 4}, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	n := &graph.Node{Name: "s", OpType: "Split", Outputs: []string{"a", "b"},
		Attrs: map[string]graph.AttrValue{"axis": graph.IntAttr(1)}}
	out, err := Run(n, []*tensor.Tensor{x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !tensor.SameShape(out[0].Shape, []int64{2, 2}) {
		t.Fatalf("split shapes: %v", out[0].Shape)
	}
	if out[1].F[0] != 3 || out[1].F[2] != 7 {
		t.Errorf("split[1] = %v", out[1].F)
	}
}

func TestReduceOps(t *testing.T) {
	x := tensor.FromFloats([]int64{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	mean := run1(t, "ReduceMean", map[string]graph.AttrValue{"axes": graph.IntsAttr(1)}, x)
	if !tensor.SameShape(mean.Shape, []int64{2, 1}) || mean.F[0] != 2 || mean.F[1] != 5 {
		t.Errorf("mean = %v %v", mean.Shape, mean.F)
	}
	sum := run1(t, "ReduceSum", map[string]graph.AttrValue{"axes": graph.IntsAttr(0), "keepdims": graph.IntAttr(0)}, x)
	if !tensor.SameShape(sum.Shape, []int64{3}) || sum.F[0] != 5 {
		t.Errorf("sum = %v %v", sum.Shape, sum.F)
	}
	mx := run1(t, "ReduceMax", nil, x)
	if mx.F[0] != 6 {
		t.Errorf("max = %v", mx.F)
	}
}

func TestArgMax(t *testing.T) {
	x := tensor.FromFloats([]int64{2, 3}, []float32{1, 9, 3, 7, 5, 6})
	am := run1(t, "ArgMax", map[string]graph.AttrValue{"axis": graph.IntAttr(1), "keepdims": graph.IntAttr(0)}, x)
	if am.I[0] != 1 || am.I[1] != 0 {
		t.Errorf("argmax = %v", am.I)
	}
}

func TestTopK(t *testing.T) {
	cases := []struct {
		name     string
		x        *tensor.Tensor
		k        int64
		shape    []int64
		wantVals []float32
		wantIdx  []int64
	}{
		{"top 2 of 5", tensor.FromFloats([]int64{1, 5}, []float32{3, 1, 4, 1, 5}), 2,
			[]int64{1, 2}, []float32{5, 4}, []int64{4, 2}},
		{"ties keep the lower index", tensor.FromFloats([]int64{2, 2}, []float32{7, 7, 1, 2}), 1,
			[]int64{2, 1}, []float32{7, 2}, []int64{0, 1}},
		{"k == 0", tensor.FromFloats([]int64{2, 3}, []float32{1, 2, 3, 4, 5, 6}), 0,
			[]int64{2, 0}, nil, nil},
		// The row count cannot come from x.Len() / inner here.
		{"zero last extent", tensor.New(tensor.Float32, 3, 0), 0,
			[]int64{3, 0}, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := &graph.Node{Name: "t", OpType: "TopK", Outputs: []string{"v", "i"},
				Attrs: map[string]graph.AttrValue{}}
			out, err := Run(n, []*tensor.Tensor{tc.x, tensor.FromInts([]int64{1}, []int64{tc.k})}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range out {
				if !tensor.SameShape(o.Shape, tc.shape) {
					t.Fatalf("output shape %v, want %v", o.Shape, tc.shape)
				}
			}
			if !slices.Equal(out[0].F, tc.wantVals) {
				t.Errorf("topk vals = %v, want %v", out[0].F, tc.wantVals)
			}
			if !slices.Equal(out[1].I, tc.wantIdx) {
				t.Errorf("topk idx = %v, want %v", out[1].I, tc.wantIdx)
			}
		})
	}
}

func TestRangeNonZeroPadTile(t *testing.T) {
	r := run1(t, "Range", nil, tensor.ScalarInt(2), tensor.ScalarInt(8), tensor.ScalarInt(3))
	if r.Len() != 2 || r.I[0] != 2 || r.I[1] != 5 {
		t.Errorf("range = %v", r.I)
	}

	nz := run1(t, "NonZero", nil, tensor.FromFloats([]int64{2, 2}, []float32{1, 0, 0, 2}))
	if !tensor.SameShape(nz.Shape, []int64{2, 2}) {
		t.Fatalf("nonzero shape %v", nz.Shape)
	}
	if nz.I[0] != 0 || nz.I[1] != 1 || nz.I[2] != 0 || nz.I[3] != 1 {
		t.Errorf("nonzero = %v", nz.I)
	}

	pd := run1(t, "Pad", map[string]graph.AttrValue{"pads": graph.IntsAttr(0, 1, 0, 1)},
		tensor.FromFloats([]int64{1, 2}, []float32{7, 8}))
	if !tensor.SameShape(pd.Shape, []int64{1, 4}) || pd.F[0] != 0 || pd.F[1] != 7 {
		t.Errorf("pad = %v %v", pd.Shape, pd.F)
	}

	tl := run1(t, "Tile", nil, tensor.FromFloats([]int64{1, 2}, []float32{1, 2}),
		tensor.FromInts([]int64{2}, []int64{2, 2}))
	if !tensor.SameShape(tl.Shape, []int64{2, 4}) || tl.F[5] != 2 {
		t.Errorf("tile = %v %v", tl.Shape, tl.F)
	}
}

func TestResizeNearest(t *testing.T) {
	x := tensor.FromFloats([]int64{1, 1, 2, 2}, []float32{1, 2, 3, 4})
	sizes := tensor.FromInts([]int64{4}, []int64{1, 1, 4, 4})
	out, err := Run(&graph.Node{OpType: "Resize", Outputs: []string{"o"}, Attrs: map[string]graph.AttrValue{}},
		[]*tensor.Tensor{x, nil, nil, sizes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(out[0].Shape, []int64{1, 1, 4, 4}) {
		t.Fatalf("resize shape %v", out[0].Shape)
	}
	if out[0].F[0] != 1 || out[0].F[3] != 2 || out[0].F[15] != 4 {
		t.Errorf("resize = %v", out[0].F)
	}
}

func TestNMS(t *testing.T) {
	boxes := tensor.FromFloats([]int64{1, 3, 4}, []float32{
		0, 0, 10, 10,
		1, 1, 11, 11, // heavy overlap with first
		20, 20, 30, 30,
	})
	scores := tensor.FromFloats([]int64{1, 1, 3}, []float32{0.9, 0.8, 0.7})
	out, err := Run(&graph.Node{OpType: "NonMaxSuppression", Outputs: []string{"o"}, Attrs: map[string]graph.AttrValue{}},
		[]*tensor.Tensor{boxes, scores}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Shape[0] != 2 {
		t.Fatalf("nms selected %d boxes: %v", out[0].Shape[0], out[0].I)
	}
	if out[0].I[2] != 0 || out[0].I[5] != 2 {
		t.Errorf("nms = %v", out[0].I)
	}
}

func TestOneHot(t *testing.T) {
	idx := tensor.FromInts([]int64{2}, []int64{1, 0})
	out := run1(t, "OneHot", nil, idx, tensor.ScalarInt(3))
	if !tensor.SameShape(out.Shape, []int64{2, 3}) || out.F[1] != 1 || out.F[3] != 1 {
		t.Errorf("onehot = %v %v", out.Shape, out.F)
	}
}

func TestEyeLike(t *testing.T) {
	out := run1(t, "EyeLike", nil, tensor.New(tensor.Float32, 2, 3))
	if out.F[0] != 1 || out.F[4] != 1 || out.F[1] != 0 {
		t.Errorf("eyelike = %v", out.F)
	}
}

func TestMissingKernel(t *testing.T) {
	if _, err := Run(mkNode("NoSuchOp", nil, 1), nil, nil); err == nil {
		t.Error("expected error")
	}
	if Has("NoSuchOp") || !Has("Conv") || Has("Switch") {
		t.Error("Has wrong")
	}
	// A control-flow row has no kernel: Run refuses it as it refuses an
	// unknown op.
	if _, err := Run(mkNode("Switch", nil, 2), nil, nil); err == nil || err.Error() != "kernels: no kernel for Switch" {
		t.Errorf("Run(Switch) = %v", err)
	}
}

// TestRowsComplete holds the operator table to one row per op type:
// every row has a forward transfer, exactly the four control-flow rows
// (the executor runs them itself) have no kernel, Types lists the rows
// that do, and registering a type twice panics.
func TestRowsComplete(t *testing.T) {
	var withKernel, without []string
	for _, op := range AllTypes() {
		d := registry[op]
		if d.Forward == nil {
			t.Errorf("%s has no Forward", op)
		}
		if d.Kernel == nil {
			without = append(without, op)
		} else {
			withKernel = append(withKernel, op)
		}
	}
	if want := []string{"Combine", "If", "Loop", "Switch"}; !slices.Equal(without, want) {
		t.Errorf("rows without a kernel = %v, want %v", without, want)
	}
	if got := Types(); !slices.Equal(got, withKernel) {
		t.Errorf("Types() = %v, want the rows with a kernel %v", got, withKernel)
	}
	if len(AllTypes()) != len(registry) {
		t.Errorf("AllTypes() lists %d of %d rows", len(AllTypes()), len(registry))
	}
	defer func() {
		if recover() == nil {
			t.Error("a second Register of Relu did not panic")
		}
	}()
	Register(&Def{Type: "Relu", Class: ISDOS, Forward: forwardUnary(false), Kernel: registry["Relu"].Kernel})
}

// Property: Reshape→Reshape back is identity; Transpose twice with the
// same permutation of rank 2 is identity.
func TestQuickReshapeTransposeRoundTrip(t *testing.T) {
	f := func(seed uint64, d0, d1 uint8) bool {
		r, c := int64(d0%4+1), int64(d1%4+1)
		x := tensor.RandomFloats(tensor.NewRNG(seed), 1, r, c)
		rs := run1(t, "Reshape", nil, x, tensor.FromInts([]int64{1}, []int64{-1}))
		back := run1(t, "Reshape", nil, rs, tensor.FromInts([]int64{2}, []int64{r, c}))
		if !tensor.AllClose(x, back, 0) {
			return false
		}
		tp := run1(t, "Transpose", nil, x)
		tp2 := run1(t, "Transpose", nil, tp)
		return tensor.AllClose(x, tp2, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
