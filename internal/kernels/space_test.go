package kernels

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestSpaceToDepthRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(31)
	x := tensor.RandomFloats(rng, 1, 1, 3, 4, 4)
	attrs := map[string]graph.AttrValue{"blocksize": graph.IntAttr(2)}
	s2d := run1(t, "SpaceToDepth", attrs, x)
	if !tensor.SameShape(s2d.Shape, []int64{1, 12, 2, 2}) {
		t.Fatalf("s2d shape %v", s2d.Shape)
	}
	back := run1(t, "DepthToSpace", attrs, s2d)
	if !tensor.AllClose(x, back, 0) {
		t.Fatal("round trip lost data")
	}
}

func TestSpaceToDepthValues(t *testing.T) {
	// 1×1×2×2 with blocksize 2 → 1×4×1×1 in (by,bx) order.
	x := tensor.FromFloats([]int64{1, 1, 2, 2}, []float32{1, 2, 3, 4})
	out := run1(t, "SpaceToDepth", map[string]graph.AttrValue{"blocksize": graph.IntAttr(2)}, x)
	want := []float32{1, 2, 3, 4}
	for i, v := range want {
		if out.F[i] != v {
			t.Fatalf("out = %v", out.F)
		}
	}
}

func TestSpaceToDepthErrors(t *testing.T) {
	x := tensor.New(tensor.Float32, 1, 1, 3, 3) // not divisible by 2
	if _, err := Run(mkNode("SpaceToDepth", map[string]graph.AttrValue{
		"blocksize": graph.IntAttr(2)}, 1), []*tensor.Tensor{x}, nil); err == nil {
		t.Error("expected divisibility error")
	}
	y := tensor.New(tensor.Float32, 1, 3, 2, 2) // C not divisible by b²
	if _, err := Run(mkNode("DepthToSpace", map[string]graph.AttrValue{
		"blocksize": graph.IntAttr(2)}, 1), []*tensor.Tensor{y}, nil); err == nil {
		t.Error("expected channel-divisibility error")
	}
}
