package kernels

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

func ctxFor(n *graph.Node, in ...lattice.Info) *InferCtx {
	out := make([]lattice.Info, len(n.Outputs))
	for i := range out {
		out[i] = lattice.UndefInfo()
	}
	return &InferCtx{
		Node:     n,
		In:       in,
		Out:      out,
		FreshSym: func(hint string) symbolic.Expr { return symbolic.NewSym(hint) },
	}
}

func info(s lattice.Shape) lattice.Info {
	return lattice.Info{Shape: s, Value: lattice.UndefValue()}
}

func node(op string, nIn, nOut int, attrs map[string]graph.AttrValue) *graph.Node {
	ins := make([]string, nIn)
	outs := make([]string, nOut)
	for i := range ins {
		ins[i] = "in" + string(rune('0'+i))
	}
	for i := range outs {
		outs[i] = "out" + string(rune('0'+i))
	}
	if attrs == nil {
		attrs = map[string]graph.AttrValue{}
	}
	return &graph.Node{Name: "t", OpType: op, Inputs: ins, Outputs: outs, Attrs: attrs}
}

func fwd(t *testing.T, n *graph.Node, in ...lattice.Info) []lattice.Info {
	t.Helper()
	d := registry[n.OpType]
	out, err := d.Forward(ctxFor(n, in...))
	if err != nil {
		t.Fatalf("%s forward: %v", n.OpType, err)
	}
	return out
}

func TestRegistryCoversTable2(t *testing.T) {
	// Representative operators of each class from Table 2.
	expect := map[string]DynClass{
		"Shape":              ISDO,
		"ConstantOfShape":    ISDO,
		"EyeLike":            ISDO,
		"Add":                ISDOS,
		"Conv":               ISDOS,
		"MatMul":             ISDOS,
		"Gather":             ISDOS,
		"ReduceMean":         ISDOS,
		"Relu":               ISDOS,
		"Sigmoid":            ISDOS,
		"Softmax":            ISDOS,
		"Concat":             ISDOS,
		"Cast":               ISDOS,
		"AveragePool":        ISDOS,
		"MaxPool":            ISDOS,
		"Round":              ISDOS,
		"Expand":             ISVDOS,
		"Reshape":            ISVDOS,
		"Range":              ISVDOS,
		"Resize":             ISVDOS,
		"Slice":              ISVDOS,
		"TopK":               ISVDOS,
		"Upsample":           ISVDOS,
		"OneHot":             ISVDOS,
		"GroupNormalization": ISVDOS,
		"If":                 EDO,
		"Loop":               EDO,
		"NonMaxSuppression":  EDO,
		"NonZero":            EDO,
		"Switch":             EDO,
		"Combine":            EDO,
	}
	for op, class := range expect {
		d, ok := Get(op)
		if !ok {
			t.Errorf("%s not registered", op)
			continue
		}
		if d.Class != class {
			t.Errorf("%s class = %v, want %v", op, d.Class, class)
		}
	}
	if len(registry) < 60 {
		t.Errorf("registry has %d ops, want >= 60", len(registry))
	}
}

func TestShapeOpProducesSymbolicValue(t *testing.T) {
	h := symbolic.NewSym("H")
	in := info(lattice.Ranked(lattice.FromInt(1), lattice.FromInt(3), lattice.FromExpr(h), lattice.FromExpr(h)))
	out := fwd(t, node("Shape", 1, 1, nil), in)
	if dims, ok := out[0].Shape.Ints(); !ok || dims[0] != 4 {
		t.Fatalf("Shape output shape = %v", out[0].Shape)
	}
	if out[0].Value.Kind != lattice.ValueElems || !out[0].Value.Elems[2].Equal(lattice.FromExpr(h)) {
		t.Errorf("Shape value = %v", out[0].Value)
	}
}

func TestBroadcastDims(t *testing.T) {
	i := lattice.FromSym("I")
	one := lattice.FromInt(1)
	five := lattice.FromInt(5)
	cases := []struct {
		a, b, want lattice.Dim
	}{
		{one, i, i},
		{i, one, i},
		{i, i, i},
		{five, i, five}, // known const ≠ 1 dominates
		{five, lattice.FromInt(5), five},
		{five, lattice.FromInt(3), lattice.NAC()},
		{lattice.Undef(), five, five},
		{lattice.Undef(), one, lattice.Undef()},
		{lattice.NAC(), i, lattice.NAC()},
	}
	for k, c := range cases {
		if got := BroadcastDims(c.a, c.b); !got.Equal(c.want) {
			t.Errorf("case %d: %v⊕%v = %v, want %v", k, c.a, c.b, got, c.want)
		}
	}
	// Two distinct symbols: op-inferred max.
	got := BroadcastDims(lattice.FromSym("I"), lattice.FromSym("J"))
	if !got.IsExpr() || got.E.String() != symbolic.Max(symbolic.NewSym("I"), symbolic.NewSym("J")).String() {
		t.Errorf("I⊕J = %v", got)
	}
}

func TestAddBroadcastShape(t *testing.T) {
	i := lattice.FromSym("I")
	a := info(lattice.Ranked(i, lattice.FromInt(1), lattice.FromInt(1)))
	b := info(lattice.Ranked(i, lattice.FromSym("J"), lattice.FromSym("K")))
	out := fwd(t, node("Add", 2, 1, nil), a, b)
	s := out[0].Shape
	if !s.Dims[0].Equal(i) || !s.Dims[1].Equal(lattice.FromSym("J")) || !s.Dims[2].Equal(lattice.FromSym("K")) {
		t.Errorf("Add shape = %v", s)
	}
}

func TestAddTrackedValueArithmetic(t *testing.T) {
	l := symbolic.NewSym("L")
	a := lattice.Info{Shape: lattice.FromInts(1), Value: lattice.ElemsValue(lattice.FromExpr(l))}
	b := lattice.Info{Shape: lattice.FromInts(1), Value: lattice.IntsValue(2)}
	out := fwd(t, node("Mul", 2, 1, nil), a, b)
	want := symbolic.Mul(l, symbolic.NewConst(2))
	if out[0].Value.Kind != lattice.ValueElems || !symbolic.Equal(out[0].Value.Elems[0].E, want) {
		t.Errorf("Mul value = %v", out[0].Value)
	}
}

func TestConvForwardSymbolic(t *testing.T) {
	h := symbolic.NewSym("H")
	x := info(lattice.Ranked(lattice.FromInt(1), lattice.FromInt(3), lattice.FromExpr(h), lattice.FromExpr(h)))
	w := info(lattice.FromInts(16, 3, 3, 3))
	n := node("Conv", 2, 1, map[string]graph.AttrValue{
		"strides": graph.IntsAttr(2, 2),
		"pads":    graph.IntsAttr(1, 1, 1, 1),
	})
	out := fwd(t, n, x, w)
	s := out[0].Shape
	if c, _ := s.Dims[1].Const(); c != 16 {
		t.Errorf("out channels = %v", s.Dims[1])
	}
	v, err := s.Dims[2].Eval(symbolic.Env{"H": 224})
	if err != nil || v != 112 {
		t.Errorf("spatial = %d (%v)", v, err)
	}
}

func TestConvBackward(t *testing.T) {
	// stride 1, k=3, p=1: input spatial == output spatial.
	h := symbolic.NewSym("H")
	n := node("Conv", 2, 1, map[string]graph.AttrValue{"pads": graph.IntsAttr(1, 1, 1, 1)})
	ctx := ctxFor(n,
		info(lattice.UndefShape()),
		info(lattice.FromInts(16, 3, 3, 3)))
	ctx.Out[0].Shape = lattice.Ranked(lattice.FromInt(1), lattice.FromInt(16), lattice.FromExpr(h), lattice.FromExpr(h))
	in, err := registry["Conv"].Backward(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s := in[0].Shape
	if s.Kind != lattice.ShapeRanked {
		t.Fatalf("backward gave %v", s)
	}
	if c, _ := s.Dims[1].Const(); c != 3 {
		t.Errorf("in channels = %v", s.Dims[1])
	}
	if !s.Dims[2].Equal(lattice.FromExpr(h)) {
		t.Errorf("in spatial = %v, want H", s.Dims[2])
	}
}

func TestMatMulForward(t *testing.T) {
	l := symbolic.NewSym("L")
	a := info(lattice.Ranked(lattice.FromInt(8), lattice.FromExpr(l), lattice.FromInt(64)))
	b := info(lattice.FromInts(64, 32))
	out := fwd(t, node("MatMul", 2, 1, nil), a, b)
	s := out[0].Shape
	if len(s.Dims) != 3 || !s.Dims[1].Equal(lattice.FromExpr(l)) {
		t.Errorf("MatMul shape = %v", s)
	}
	if c, _ := s.Dims[2].Const(); c != 32 {
		t.Errorf("n = %v", s.Dims[2])
	}
}

func TestReshapeWithSymbolicMinusOne(t *testing.T) {
	l := symbolic.NewSym("L")
	data := info(lattice.Ranked(lattice.FromInt(1), lattice.FromExpr(l), lattice.FromInt(64)))
	target := lattice.Info{Shape: lattice.FromInts(3), Value: lattice.ElemsValue(
		lattice.FromInt(1), lattice.FromInt(-1), lattice.FromInt(8))}
	out := fwd(t, node("Reshape", 2, 1, nil), data, target)
	s := out[0].Shape
	// -1 dim = 64*L/8 = 8*L
	v, err := s.Dims[1].Eval(symbolic.Env{"L": 10})
	if err != nil || v != 80 {
		t.Errorf("inferred dim = %v (%v), shape=%v", v, err, s)
	}
}

func TestReshapeZeroCopies(t *testing.T) {
	data := info(lattice.Ranked(lattice.FromInt(2), lattice.FromSym("L")))
	target := lattice.Info{Shape: lattice.FromInts(2), Value: lattice.IntsValue(0, -1)}
	out := fwd(t, node("Reshape", 2, 1, nil), data, target)
	if c, _ := out[0].Shape.Dims[0].Const(); c != 2 {
		t.Errorf("0-dim should copy: %v", out[0].Shape)
	}
	if !out[0].Shape.Dims[1].Equal(lattice.FromSym("L")) {
		t.Errorf("-1 dim = %v", out[0].Shape.Dims[1])
	}
}

func TestConcatSymbolicSum(t *testing.T) {
	l := symbolic.NewSym("L")
	a := info(lattice.Ranked(lattice.FromInt(1), lattice.FromExpr(l)))
	b := info(lattice.Ranked(lattice.FromInt(1), lattice.FromInt(4)))
	n := node("Concat", 2, 1, map[string]graph.AttrValue{"axis": graph.IntAttr(1)})
	out := fwd(t, n, a, b)
	want := symbolic.Add(l, symbolic.NewConst(4))
	if !symbolic.Equal(out[0].Shape.Dims[1].E, want) {
		t.Errorf("concat dim = %v, want %v", out[0].Shape.Dims[1], want)
	}
}

func TestConcatValueTracking(t *testing.T) {
	a := lattice.Info{Shape: lattice.FromInts(1), Value: lattice.IntsValue(1)}
	b := lattice.Info{Shape: lattice.FromInts(1), Value: lattice.ElemsValue(lattice.FromSym("L"))}
	n := node("Concat", 2, 1, map[string]graph.AttrValue{"axis": graph.IntAttr(0)})
	out := fwd(t, n, a, b)
	if out[0].Value.Kind != lattice.ValueElems || len(out[0].Value.Elems) != 2 {
		t.Fatalf("concat value = %v", out[0].Value)
	}
}

func TestGatherShapeVectorIdiom(t *testing.T) {
	// Shape -> Gather(idx=2) selects the H dimension symbolically.
	h := symbolic.NewSym("H")
	shapeVec := lattice.Info{
		Shape: lattice.FromInts(4),
		Value: lattice.ElemsValue(lattice.FromInt(1), lattice.FromInt(3), lattice.FromExpr(h), lattice.FromExpr(h)),
	}
	idx := lattice.Info{Shape: lattice.FromInts(), Value: lattice.IntsValue(2)}
	out := fwd(t, node("Gather", 2, 1, nil), shapeVec, idx)
	if out[0].Value.Kind != lattice.ValueElems || !symbolic.Equal(out[0].Value.Elems[0].E, h) {
		t.Errorf("gathered value = %v", out[0].Value)
	}
}

func TestSliceSymbolicDim(t *testing.T) {
	l := symbolic.NewSym("L")
	data := info(lattice.Ranked(lattice.FromExpr(l), lattice.FromInt(8)))
	starts := lattice.Info{Shape: lattice.FromInts(1), Value: lattice.IntsValue(1)}
	ends := lattice.Info{Shape: lattice.FromInts(1), Value: lattice.IntsValue(1 << 40)}
	axes := lattice.Info{Shape: lattice.FromInts(1), Value: lattice.IntsValue(0)}
	n := node("Slice", 4, 1, nil)
	out := fwd(t, n, data, starts, ends, axes)
	v, err := out[0].Shape.Dims[0].Eval(symbolic.Env{"L": 10})
	if err != nil || v != 9 {
		t.Errorf("slice dim eval = %d (%v): %v", v, err, out[0].Shape)
	}
}

// TestSliceStepsAndMalformedBounds: a backward step over a constant dim
// yields the extent the kernel produces, over a symbolic dim an
// undetermined one; a zero step, an axis outside the rank or unpaired
// bound vectors are analysis errors, not panics.
func TestSliceStepsAndMalformedBounds(t *testing.T) {
	ints := func(v ...int64) lattice.Info {
		return lattice.Info{Shape: lattice.FromInts(int64(len(v))), Value: lattice.IntsValue(v...)}
	}
	data := info(lattice.Ranked(lattice.FromSym("L"), lattice.FromInt(8)))
	n := node("Slice", 5, 1, nil)
	out := fwd(t, n, data, ints(-1, 6), ints(-1<<62, 0), ints(0, 1), ints(-1, -2))
	if got := out[0].Shape.Dims[1]; !got.Equal(lattice.FromInt(3)) {
		t.Errorf("dim 1 sliced 6:0:-2 of 8 = %v, want 3", got)
	}
	if got := out[0].Shape.Dims[0]; got.Kind != lattice.DimUndef {
		t.Errorf("symbolic dim stepped backward = %v, want undetermined", got)
	}
	for _, tc := range []struct {
		name string
		in   []lattice.Info
		want string
	}{
		{"zero step", []lattice.Info{ints(0), ints(4), ints(1), ints(0)}, "zero step"},
		{"axis past rank", []lattice.Info{ints(0), ints(4), ints(2), ints(1)}, "out of range"},
		{"unpaired ends", []lattice.Info{ints(0, 0), ints(4), ints(0, 1), ints(1, 1)}, "do not pair up"},
	} {
		_, err := registry["Slice"].Forward(ctxFor(n, append([]lattice.Info{data}, tc.in...)...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

func TestTransposeForwardBackward(t *testing.T) {
	a := info(lattice.Ranked(lattice.FromSym("A"), lattice.FromSym("B"), lattice.FromSym("C")))
	n := node("Transpose", 1, 1, map[string]graph.AttrValue{"perm": graph.IntsAttr(2, 0, 1)})
	out := fwd(t, n, a)
	if !out[0].Shape.Dims[0].Equal(lattice.FromSym("C")) {
		t.Errorf("transpose = %v", out[0].Shape)
	}
	// Backward: recover input from output.
	ctx := ctxFor(n, info(lattice.UndefShape()))
	ctx.Out[0].Shape = out[0].Shape
	in, err := registry["Transpose"].Backward(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !in[0].Shape.Dims[0].Equal(lattice.FromSym("A")) {
		t.Errorf("backward = %v", in[0].Shape)
	}
}

func TestRangeSymbolic(t *testing.T) {
	l := symbolic.NewSym("L")
	start := lattice.Info{Shape: lattice.FromInts(), Value: lattice.IntsValue(0)}
	limit := lattice.Info{Shape: lattice.FromInts(), Value: lattice.ElemsValue(lattice.FromExpr(l))}
	delta := lattice.Info{Shape: lattice.FromInts(), Value: lattice.IntsValue(1)}
	out := fwd(t, node("Range", 3, 1, nil), start, limit, delta)
	v, err := out[0].Shape.Dims[0].Eval(symbolic.Env{"L": 7})
	if err != nil || v != 7 {
		t.Errorf("range dim = %d (%v)", v, err)
	}
}

func TestExpandForward(t *testing.T) {
	data := info(lattice.Ranked(lattice.FromInt(1), lattice.FromInt(4)))
	target := lattice.Info{Shape: lattice.FromInts(2), Value: lattice.ElemsValue(lattice.FromSym("N"), lattice.FromInt(4))}
	out := fwd(t, node("Expand", 2, 1, nil), data, target)
	if !out[0].Shape.Dims[0].Equal(lattice.FromSym("N")) {
		t.Errorf("expand = %v", out[0].Shape)
	}
}

func TestReduceKeepDims(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromInt(2), lattice.FromSym("L"), lattice.FromInt(8)))
	n := node("ReduceMean", 1, 1, map[string]graph.AttrValue{"axes": graph.IntsAttr(-1), "keepdims": graph.IntAttr(1)})
	out := fwd(t, n, x)
	if c, _ := out[0].Shape.Dims[2].Const(); c != 1 {
		t.Errorf("keepdims = %v", out[0].Shape)
	}
	n2 := node("ReduceMean", 1, 1, map[string]graph.AttrValue{"axes": graph.IntsAttr(1), "keepdims": graph.IntAttr(0)})
	out2 := fwd(t, n2, x)
	if r, _ := out2[0].Shape.Rank(); r != 2 {
		t.Errorf("rank after drop = %v", out2[0].Shape)
	}
}

func TestPoolingForward(t *testing.T) {
	h := symbolic.NewSym("H")
	x := info(lattice.Ranked(lattice.FromInt(1), lattice.FromInt(8), lattice.FromExpr(h), lattice.FromExpr(h)))
	n := node("MaxPool", 1, 1, map[string]graph.AttrValue{
		"kernel_shape": graph.IntsAttr(2, 2), "strides": graph.IntsAttr(2, 2)})
	out := fwd(t, n, x)
	v, err := out[0].Shape.Dims[2].Eval(symbolic.Env{"H": 224})
	if err != nil || v != 112 {
		t.Errorf("pool dim = %d (%v)", v, err)
	}
	g := fwd(t, node("GlobalAveragePool", 1, 1, nil), x)
	if c, _ := g[0].Shape.Dims[2].Const(); c != 1 {
		t.Errorf("global pool = %v", g[0].Shape)
	}
}

func TestSwitchCombine(t *testing.T) {
	s := lattice.Ranked(lattice.FromInt(1), lattice.FromSym("C"))
	pred := info(lattice.FromInts())
	data := info(s)
	swNode := node("Switch", 2, 2, nil)
	out := fwd(t, swNode, pred, data)
	if !out[0].Shape.Equal(s) || !out[1].Shape.Equal(s) {
		t.Errorf("switch outputs = %v, %v", out[0].Shape, out[1].Shape)
	}
	// Combine with agreeing branches keeps the shape; disagreeing → ⊥.
	cb := fwd(t, node("Combine", 2, 1, nil), info(s), info(s))
	if !cb[0].Shape.Equal(s) {
		t.Errorf("combine = %v", cb[0].Shape)
	}
	cb2 := fwd(t, node("Combine", 2, 1, nil), info(s), info(lattice.FromInts(1, 3)))
	if !cb2[0].Shape.HasNACDim() {
		t.Errorf("conflicting combine = %v", cb2[0].Shape)
	}
}

func TestNonZeroIsEDO(t *testing.T) {
	x := info(lattice.FromInts(3, 4))
	out := fwd(t, node("NonZero", 1, 1, nil), x)
	if c, _ := out[0].Shape.Dims[0].Const(); c != 2 {
		t.Errorf("rank dim = %v", out[0].Shape)
	}
	if !out[0].Shape.Dims[1].IsNAC() {
		t.Errorf("count dim should be ⊥: %v", out[0].Shape)
	}
}

func TestCostFunctions(t *testing.T) {
	conv := node("Conv", 2, 1, nil)
	flops, bytes := registry["Conv"].Cost(conv,
		[][]int64{{1, 3, 224, 224}, {16, 3, 3, 3}},
		[][]int64{{1, 16, 224, 224}})
	wantFlops := int64(2) * (1 * 16 * 224 * 224) * 3 * 9
	if flops != wantFlops {
		t.Errorf("conv flops = %d, want %d", flops, wantFlops)
	}
	if bytes <= 0 {
		t.Error("conv bytes")
	}
	mm := node("MatMul", 2, 1, nil)
	f2, _ := registry["MatMul"].Cost(mm, [][]int64{{128, 64}, {64, 32}}, [][]int64{{128, 32}})
	if f2 != 2*128*64*32 {
		t.Errorf("matmul flops = %d", f2)
	}
	add := node("Add", 2, 1, nil)
	f3, _ := registry["Add"].Cost(add, [][]int64{{10}, {10}}, [][]int64{{10}})
	if f3 != 10 {
		t.Errorf("add flops = %d", f3)
	}
	// A 1×1 MaxPool reads one value per output, like any kvol-1 window;
	// only the global pools read the whole plane.
	pool := node("MaxPool", 1, 1, map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(1, 1)})
	if f4, _ := registry["MaxPool"].Cost(pool, [][]int64{{1, 8, 32, 32}}, [][]int64{{1, 8, 32, 32}}); f4 != 8192 {
		t.Errorf("1×1 MaxPool flops = %d, want 8192", f4)
	}
	gap := node("GlobalAveragePool", 1, 1, nil)
	if f5, _ := registry["GlobalAveragePool"].Cost(gap, [][]int64{{1, 8, 32, 32}}, [][]int64{{1, 8, 1, 1}}); f5 != 8192 {
		t.Errorf("GlobalAveragePool flops = %d, want 8192", f5)
	}
}

func TestInfoForInitializer(t *testing.T) {
	tt := tensor.FromInts([]int64{3}, []int64{1, -1, 8})
	inf := InfoForInitializer(tt)
	if vals, ok := inf.Value.Ints(); !ok || vals[1] != -1 {
		t.Errorf("initializer value = %v", inf.Value)
	}
	big := tensor.New(tensor.Float32, 1000)
	if !InfoForInitializer(big).Value.IsUndef() {
		t.Error("large float tensors should not be tracked")
	}
	fl := tensor.FromFloats([]int64{2}, []float32{2, 4})
	if vals, ok := InfoForInitializer(fl).Value.Ints(); !ok || vals[1] != 4 {
		t.Error("integral float constants should be tracked")
	}
	frac := tensor.FromFloats([]int64{1}, []float32{2.5})
	if !InfoForInitializer(frac).Value.IsUndef() {
		t.Error("fractional floats should not be tracked")
	}
}
