package kernels

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
)

func TestFlattenSymbolic(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromInt(1), lattice.FromSym("C"), lattice.FromSym("H"), lattice.FromSym("H")))
	out := fwd(t, node("Flatten", 1, 1, map[string]graph.AttrValue{"axis": graph.IntAttr(2)}), x)
	s := out[0].Shape
	v0, _ := s.Dims[0].Eval(symbolic.Env{"C": 3, "H": 4})
	v1, _ := s.Dims[1].Eval(symbolic.Env{"C": 3, "H": 4})
	if v0 != 3 || v1 != 16 {
		t.Errorf("flatten = %v", s)
	}
}

func TestSqueezeUnsqueeze(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromInt(1), lattice.FromSym("L"), lattice.FromInt(1)))
	sq := fwd(t, node("Squeeze", 1, 1, map[string]graph.AttrValue{"axes": graph.IntsAttr(0, 2)}), x)
	if r, _ := sq[0].Shape.Rank(); r != 1 || !sq[0].Shape.Dims[0].Equal(lattice.FromSym("L")) {
		t.Errorf("squeeze = %v", sq[0].Shape)
	}
	// Squeeze with no axes drops all const-1 dims.
	sq2 := fwd(t, node("Squeeze", 1, 1, nil), x)
	if r, _ := sq2[0].Shape.Rank(); r != 1 {
		t.Errorf("auto squeeze = %v", sq2[0].Shape)
	}
	us := fwd(t, node("Unsqueeze", 1, 1, map[string]graph.AttrValue{"axes": graph.IntsAttr(0)}),
		info(lattice.Ranked(lattice.FromSym("L"))))
	if r, _ := us[0].Shape.Rank(); r != 2 {
		t.Errorf("unsqueeze = %v", us[0].Shape)
	}
	if c, _ := us[0].Shape.Dims[0].Const(); c != 1 {
		t.Errorf("unsqueeze dim0 = %v", us[0].Shape)
	}
}

func TestSplitInference(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromInt(2), lattice.FromSym("L")))
	// Even split over symbolic axis.
	n := node("Split", 1, 2, map[string]graph.AttrValue{"axis": graph.IntAttr(1)})
	out := fwd(t, n, x)
	if len(out) != 2 {
		t.Fatalf("outputs = %d", len(out))
	}
	v, err := out[0].Shape.Dims[1].Eval(symbolic.Env{"L": 10})
	if err != nil || v != 5 {
		t.Errorf("split dim = %d (%v)", v, err)
	}
	// Explicit splits attr.
	n2 := node("Split", 1, 2, map[string]graph.AttrValue{
		"axis": graph.IntAttr(0), "split": graph.IntsAttr(1, 1)})
	out2 := fwd(t, n2, x)
	if c, _ := out2[1].Shape.Dims[0].Const(); c != 1 {
		t.Errorf("split[1] = %v", out2[1].Shape)
	}
}

func TestPadInference(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromSym("H"), lattice.FromInt(4)))
	pads := lattice.Info{Shape: lattice.FromInts(4), Value: lattice.IntsValue(1, 0, 2, 0)}
	out := fwd(t, node("Pad", 2, 1, nil), x, pads)
	want := symbolic.Add(symbolic.NewSym("H"), symbolic.NewConst(3))
	if !symbolic.Equal(out[0].Shape.Dims[0].E, want) {
		t.Errorf("pad dim = %v", out[0].Shape)
	}
	// NAC pads → ⊥ shape.
	nac := lattice.Info{Shape: lattice.FromInts(4), Value: lattice.NACValue()}
	out2 := fwd(t, node("Pad", 2, 1, nil), x, nac)
	if !out2[0].Shape.IsNAC() {
		t.Errorf("nac pads = %v", out2[0].Shape)
	}
}

func TestTileInference(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromSym("N"), lattice.FromInt(3)))
	reps := lattice.Info{Shape: lattice.FromInts(2), Value: lattice.IntsValue(2, 4)}
	out := fwd(t, node("Tile", 2, 1, nil), x, reps)
	v, err := out[0].Shape.Dims[0].Eval(symbolic.Env{"N": 5})
	if err != nil || v != 10 {
		t.Errorf("tile dim0 = %d", v)
	}
	if c, _ := out[0].Shape.Dims[1].Const(); c != 12 {
		t.Errorf("tile dim1 = %v", out[0].Shape.Dims[1])
	}
}

func TestResizeWithSizesAndScales(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromInt(1), lattice.FromInt(3), lattice.FromSym("H"), lattice.FromSym("W")))
	// sizes input (index 3).
	sizes := lattice.Info{Shape: lattice.FromInts(4), Value: lattice.IntsValue(1, 3, 64, 64)}
	n := node("Resize", 4, 1, nil)
	out := fwd(t, n, x, lattice.UndefInfo(), lattice.UndefInfo(), sizes)
	if c, _ := out[0].Shape.Dims[2].Const(); c != 64 {
		t.Errorf("resize sizes = %v", out[0].Shape)
	}
	// scales input (index 2): H*2.
	scales := lattice.Info{Shape: lattice.FromInts(4), Value: lattice.IntsValue(1, 1, 2, 2)}
	n2 := node("Resize", 3, 1, nil)
	out2 := fwd(t, n2, x, lattice.UndefInfo(), scales)
	v, err := out2[0].Shape.Dims[2].Eval(symbolic.Env{"H": 32, "W": 32})
	if err != nil || v != 64 {
		t.Errorf("resize scales = %v", out2[0].Shape)
	}
}

func TestTopKInference(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromInt(1), lattice.FromSym("N")))
	k := lattice.Info{Shape: lattice.FromInts(1), Value: lattice.IntsValue(5)}
	out := fwd(t, node("TopK", 2, 2, nil), x, k)
	if c, _ := out[0].Shape.Dims[1].Const(); c != 5 {
		t.Errorf("topk vals = %v", out[0].Shape)
	}
	if c, _ := out[1].Shape.Dims[1].Const(); c != 5 {
		t.Errorf("topk idx = %v", out[1].Shape)
	}
	// Dynamic k → ⊥ dim.
	nacK := lattice.Info{Shape: lattice.FromInts(1), Value: lattice.NACValue()}
	out2 := fwd(t, node("TopK", 2, 2, nil), x, nacK)
	if !out2[0].Shape.Dims[1].IsNAC() {
		t.Errorf("dynamic k = %v", out2[0].Shape)
	}
}

func TestOneHotInference(t *testing.T) {
	idx := info(lattice.Ranked(lattice.FromSym("B")))
	depth := lattice.Info{Shape: lattice.FromInts(), Value: lattice.IntsValue(10)}
	out := fwd(t, node("OneHot", 2, 1, nil), idx, depth)
	if r, _ := out[0].Shape.Rank(); r != 2 {
		t.Fatalf("onehot rank = %v", out[0].Shape)
	}
	if c, _ := out[0].Shape.Dims[1].Const(); c != 10 {
		t.Errorf("onehot depth = %v", out[0].Shape)
	}
}

func TestArgMaxInference(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromSym("B"), lattice.FromInt(10)))
	out := fwd(t, node("ArgMax", 1, 1, map[string]graph.AttrValue{
		"axis": graph.IntAttr(1), "keepdims": graph.IntAttr(0)}), x)
	if r, _ := out[0].Shape.Rank(); r != 1 || !out[0].Shape.Dims[0].Equal(lattice.FromSym("B")) {
		t.Errorf("argmax = %v", out[0].Shape)
	}
}

func TestSizeOp(t *testing.T) {
	x := info(lattice.Ranked(lattice.FromSym("H"), lattice.FromInt(3)))
	out := fwd(t, node("Size", 1, 1, nil), x)
	if out[0].Value.Kind != lattice.ValueElems {
		t.Fatalf("size value = %v", out[0].Value)
	}
	v, err := out[0].Value.Elems[0].Eval(symbolic.Env{"H": 7})
	if err != nil || v != 21 {
		t.Errorf("size = %d", v)
	}
}

func TestConstantOfShape(t *testing.T) {
	sv := lattice.Info{Shape: lattice.FromInts(2), Value: lattice.ElemsValue(lattice.FromSym("N"), lattice.FromInt(3))}
	out := fwd(t, node("ConstantOfShape", 1, 1, nil), sv)
	if !out[0].Shape.Dims[0].Equal(lattice.FromSym("N")) {
		t.Errorf("constantofshape = %v", out[0].Shape)
	}
	nac := lattice.Info{Shape: lattice.FromInts(2), Value: lattice.NACValue()}
	out2 := fwd(t, node("ConstantOfShape", 1, 1, nil), nac)
	if !out2[0].Shape.IsNAC() {
		t.Errorf("nac shape input = %v", out2[0].Shape)
	}
}

func TestBackwardBinaryRefinement(t *testing.T) {
	// z = Add(x, b) where b = [1, 1, C]; output known → x refined.
	n := node("Add", 2, 1, nil)
	ctx := ctxFor(n,
		info(lattice.Ranked(lattice.Undef(), lattice.Undef(), lattice.Undef())),
		info(lattice.Ranked(lattice.FromInt(1), lattice.FromInt(1), lattice.FromInt(8))))
	ctx.Out[0].Shape = lattice.Ranked(lattice.FromInt(2), lattice.FromSym("L"), lattice.FromInt(8))
	in, err := registry["Add"].Backward(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s := in[0].Shape
	if s.Kind != lattice.ShapeRanked {
		t.Fatalf("no refinement: %v", s)
	}
	// Other operand is 1 on dims 0,1 → x takes the output dims there.
	if c, _ := s.Dims[0].Const(); c != 2 {
		t.Errorf("dim0 = %v", s.Dims[0])
	}
	if !s.Dims[1].Equal(lattice.FromSym("L")) {
		t.Errorf("dim1 = %v", s.Dims[1])
	}
}

func TestBackwardMatMul(t *testing.T) {
	n := node("MatMul", 2, 1, nil)
	// B known [64, 32], output [B?, L, 32] known: refine A = [.., L, 64].
	ctx := ctxFor(n,
		info(lattice.Ranked(lattice.Undef(), lattice.Undef(), lattice.Undef())),
		info(lattice.FromInts(64, 32)))
	ctx.Out[0].Shape = lattice.Ranked(lattice.FromInt(1), lattice.FromSym("L"), lattice.FromInt(32))
	in, err := registry["MatMul"].Backward(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a := in[0].Shape
	if a.Kind != lattice.ShapeRanked || len(a.Dims) != 3 {
		t.Fatalf("A = %v", a)
	}
	if c, _ := a.Dims[2].Const(); c != 64 {
		t.Errorf("A k-dim = %v", a.Dims[2])
	}
	if !a.Dims[1].Equal(lattice.FromSym("L")) {
		t.Errorf("A m-dim = %v", a.Dims[1])
	}
}

func TestBackwardConcatResidual(t *testing.T) {
	// out = Concat(a, b, axis=0); a known [3, 4]; out known [L+3, 4]
	// → b = [L, 4].
	l := symbolic.NewSym("L")
	n := node("Concat", 2, 1, map[string]graph.AttrValue{"axis": graph.IntAttr(0)})
	ctx := ctxFor(n,
		info(lattice.FromInts(3, 4)),
		info(lattice.UndefShape()))
	ctx.Out[0].Shape = lattice.Ranked(
		lattice.FromExpr(symbolic.Add(l, symbolic.NewConst(3))), lattice.FromInt(4))
	in, err := registry["Concat"].Backward(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b := in[1].Shape
	if b.Kind != lattice.ShapeRanked {
		t.Fatalf("b = %v", b)
	}
	if !symbolic.Equal(b.Dims[0].E, l) {
		t.Errorf("residual = %v, want L", b.Dims[0])
	}
}

func TestGatherEmbeddingShape(t *testing.T) {
	emb := info(lattice.FromInts(1000, 64))
	idx := info(lattice.Ranked(lattice.FromInt(1), lattice.FromSym("L")))
	out := fwd(t, node("Gather", 2, 1, nil), emb, idx)
	s := out[0].Shape
	if r, _ := s.Rank(); r != 3 {
		t.Fatalf("gather = %v", s)
	}
	if !s.Dims[1].Equal(lattice.FromSym("L")) {
		t.Errorf("L lost: %v", s)
	}
	if c, _ := s.Dims[2].Const(); c != 64 {
		t.Errorf("dim = %v", s)
	}
}

func TestGemmForwardTrans(t *testing.T) {
	a := info(lattice.FromInts(64, 32))
	b := info(lattice.FromInts(16, 64))
	n := node("Gemm", 2, 1, map[string]graph.AttrValue{
		"transA": graph.IntAttr(1), "transB": graph.IntAttr(1)})
	out := fwd(t, n, a, b)
	if dims, ok := out[0].Shape.Ints(); !ok || dims[0] != 32 || dims[1] != 16 {
		t.Errorf("gemm = %v", out[0].Shape)
	}
}
