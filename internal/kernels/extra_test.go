package kernels

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestCumSum(t *testing.T) {
	x := tensor.FromFloats([]int64{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	axis := tensor.ScalarInt(1)
	out := run1(t, "CumSum", nil, x, axis)
	want := []float32{1, 3, 6, 4, 9, 15}
	for i, v := range want {
		if out.F[i] != v {
			t.Fatalf("cumsum = %v", out.F)
		}
	}
	ex := run1(t, "CumSum", map[string]graph.AttrValue{"exclusive": graph.IntAttr(1)}, x, axis)
	if ex.F[0] != 0 || ex.F[1] != 1 || ex.F[2] != 3 {
		t.Errorf("exclusive = %v", ex.F)
	}
	rv := run1(t, "CumSum", map[string]graph.AttrValue{"reverse": graph.IntAttr(1)}, x, axis)
	if rv.F[0] != 6 || rv.F[2] != 3 {
		t.Errorf("reverse = %v", rv.F)
	}
}

func TestTrilu(t *testing.T) {
	x := tensor.FromFloats([]int64{3, 3}, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9})
	up := run1(t, "Trilu", nil, x)
	wantUp := []float32{1, 2, 3, 0, 5, 6, 0, 0, 9}
	for i, v := range wantUp {
		if up.F[i] != v {
			t.Fatalf("upper = %v", up.F)
		}
	}
	lo := run1(t, "Trilu", map[string]graph.AttrValue{"upper": graph.IntAttr(0)}, x)
	wantLo := []float32{1, 0, 0, 4, 5, 0, 7, 8, 9}
	for i, v := range wantLo {
		if lo.F[i] != v {
			t.Fatalf("lower = %v", lo.F)
		}
	}
	// Diagonal shift k=1 on upper keeps strictly-above-diagonal.
	k1 := run1(t, "Trilu", nil, x, tensor.ScalarInt(1))
	if k1.F[0] != 0 || k1.F[1] != 2 {
		t.Errorf("k=1 = %v", k1.F)
	}
}

func TestScatterElements(t *testing.T) {
	data := tensor.FromFloats([]int64{1, 5}, []float32{0, 0, 0, 0, 0})
	idx := tensor.FromInts([]int64{1, 2}, []int64{1, 3})
	upd := tensor.FromFloats([]int64{1, 2}, []float32{7, 9})
	out := run1(t, "ScatterElements", map[string]graph.AttrValue{"axis": graph.IntAttr(1)}, data, idx, upd)
	want := []float32{0, 7, 0, 9, 0}
	for i, v := range want {
		if out.F[i] != v {
			t.Fatalf("scatter = %v", out.F)
		}
	}
	// Out-of-range index errors.
	bad := tensor.FromInts([]int64{1, 1}, []int64{9})
	badU := tensor.FromFloats([]int64{1, 1}, []float32{1})
	if _, err := Run(mkNode("ScatterElements", map[string]graph.AttrValue{"axis": graph.IntAttr(1)}, 1),
		[]*tensor.Tensor{data, bad, badU}, nil); err == nil {
		t.Error("expected range error")
	}
}

func TestExtraUnaries(t *testing.T) {
	x := tensor.FromFloats([]int64{3}, []float32{-2, 0, 2})
	ss := run1(t, "Softsign", nil, x)
	if math.Abs(float64(ss.F[0])+2.0/3) > 1e-6 || ss.F[1] != 0 {
		t.Errorf("softsign = %v", ss.F)
	}
	tr := run1(t, "ThresholdedRelu", map[string]graph.AttrValue{"alpha": graph.FloatAttr(1)}, x)
	if tr.F[0] != 0 || tr.F[2] != 2 {
		t.Errorf("thresholded = %v", tr.F)
	}
	sin := run1(t, "Sin", nil, tensor.FromFloats([]int64{1}, []float32{0}))
	cos := run1(t, "Cos", nil, tensor.FromFloats([]int64{1}, []float32{0}))
	if sin.F[0] != 0 || cos.F[0] != 1 {
		t.Errorf("sin/cos = %v %v", sin.F, cos.F)
	}
}
