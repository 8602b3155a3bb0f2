package tensor

import (
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	a := New(Float32, 2, 3)
	if a.Len() != 6 || a.Bytes() != 24 || a.Rank() != 2 {
		t.Fatalf("len=%d bytes=%d rank=%d", a.Len(), a.Bytes(), a.Rank())
	}
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 || a.F[5] != 5 {
		t.Error("Set/At mismatch")
	}
	i := New(Int64, 3)
	if i.Bytes() != 24 {
		t.Errorf("int64 bytes = %d", i.Bytes())
	}
	b := New(Bool, 4)
	if b.Bytes() != 4 {
		t.Errorf("bool bytes = %d", b.Bytes())
	}
}

func TestScalars(t *testing.T) {
	s := Scalar(2.5)
	if s.Rank() != 0 || s.Len() != 1 || s.F[0] != 2.5 {
		t.Error("float scalar")
	}
	if ScalarInt(7).I[0] != 7 {
		t.Error("int scalar")
	}
	if !ScalarBool(true).B[0] {
		t.Error("bool scalar")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromFloats([]int64{2}, []float32{1, 2})
	c := a.Clone()
	c.F[0] = 9
	if a.F[0] != 1 {
		t.Error("clone shares storage")
	}
}

func TestReshapedSharesData(t *testing.T) {
	a := FromFloats([]int64{2, 3}, []float32{0, 1, 2, 3, 4, 5})
	r := a.Reshaped([]int64{3, 2})
	r.F[0] = 42
	if a.F[0] != 42 {
		t.Error("reshape should share data")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad reshape should panic")
		}
	}()
	a.Reshaped([]int64{7})
}

func TestStridesOffset(t *testing.T) {
	s := Strides([]int64{2, 3, 4})
	want := []int64{12, 4, 1}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("strides = %v", s)
		}
	}
	if Offset(s, []int64{1, 2, 3}) != 23 {
		t.Error("offset")
	}
}

func TestBroadcastShapes(t *testing.T) {
	cases := []struct {
		a, b, want []int64
		err        bool
	}{
		{[]int64{2, 3}, []int64{2, 3}, []int64{2, 3}, false},
		{[]int64{2, 1}, []int64{2, 3}, []int64{2, 3}, false},
		{[]int64{3}, []int64{2, 3}, []int64{2, 3}, false},
		{[]int64{1}, []int64{5}, []int64{5}, false},
		{nil, []int64{4}, []int64{4}, false},
		{[]int64{2}, []int64{3}, nil, true},
	}
	for i, c := range cases {
		got, err := BroadcastShapes(c.a, c.b)
		if (err != nil) != c.err {
			t.Fatalf("case %d err=%v", i, err)
		}
		if err == nil && !SameShape(got, c.want) {
			t.Errorf("case %d: %v", i, got)
		}
	}
}

func TestStrideDescriptors(t *testing.T) {
	eq := func(name string, got, want []int64) {
		t.Helper()
		if !SameShape(got, want) {
			t.Errorf("%s: got %v want %v", name, got, want)
		}
	}
	eq("trailing", BroadcastStrides([]int64{1, 3}, []int64{2, 3}), []int64{0, 1})
	eq("scalar", BroadcastStrides(nil, []int64{2, 3}), []int64{0, 0})
	eq("rank-padded middle", BroadcastStrides([]int64{4, 1, 5}, []int64{2, 4, 3, 5}), []int64{0, 5, 0, 1})
	eq("zero extent", BroadcastStrides([]int64{0, 3}, []int64{0, 3}), []int64{3, 1})
	eq("perm", PermuteStrides([]int64{2, 3, 4}, []int64{2, 0, 1}), []int64{1, 12, 4})
	strides, base := SliceStrides([]int64{4, 5}, []int64{1, 4}, []int64{2, -1})
	eq("slice", strides, []int64{10, -1})
	if base != 9 {
		t.Errorf("slice base: got %d want 9", base)
	}
}

// Property: broadcasting is commutative and idempotent on equal shapes.
func TestQuickBroadcastCommutes(t *testing.T) {
	f := func(a0, b0 uint8) bool {
		a := []int64{int64(a0%3 + 1), 1}
		b := []int64{1, int64(b0%4 + 1)}
		ab, err1 := BroadcastShapes(a, b)
		ba, err2 := BroadcastShapes(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return SameShape(ab, ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllClose(t *testing.T) {
	a := FromFloats([]int64{2}, []float32{1, 2})
	b := FromFloats([]int64{2}, []float32{1, 2.0005})
	if !AllClose(a, b, 1e-3) {
		t.Error("should be close")
	}
	if AllClose(a, b, 1e-6) {
		t.Error("should not be close")
	}
	if AllClose(a, FromFloats([]int64{1, 2}, []float32{1, 2}), 1) {
		t.Error("shape mismatch should fail")
	}
}

func TestRNGDeterminism(t *testing.T) {
	r1, r2 := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("rng not deterministic")
		}
	}
	r3 := NewRNG(0)
	v := r3.Float32()
	if v < 0 || v >= 1 {
		t.Errorf("uniform out of range: %f", v)
	}
	// Normal should be roughly centered.
	var sum float64
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		sum += float64(r.NormFloat32())
	}
	if sum/1000 > 0.2 || sum/1000 < -0.2 {
		t.Errorf("normal mean = %f", sum/1000)
	}
}

func TestRandomFloats(t *testing.T) {
	a := RandomFloats(NewRNG(1), 0.5, 3, 4)
	if a.Len() != 12 {
		t.Error("len")
	}
	var any bool
	for _, v := range a.F {
		if v != 0 {
			any = true
		}
	}
	if !any {
		t.Error("all zero")
	}
}
