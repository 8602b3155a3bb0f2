package tensor

import (
	"math"
	"testing"
)

// checkRoundTrip quantizes to int8, dequantizes, and holds every
// element's absolute error to its row's analytic bound.
func checkRoundTrip(t *testing.T, src *Tensor) {
	t.Helper()
	qt, err := Quantize(src, Int8, 0)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	got := qt.Dequantize()
	q := qt.Q
	for r := int64(0); r < q.Rows; r++ {
		row := src.F[r*q.Cols : (r+1)*q.Cols]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range row {
			lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
		}
		bound := AbsErrorBound(Int8, lo, hi)
		for j := range row {
			err := math.Abs(float64(got.F[r*q.Cols+int64(j)]) - float64(row[j]))
			if err > bound {
				t.Fatalf("row %d elem %d: |%g - %g| = %g exceeds bound %g",
					r, j, got.F[r*q.Cols+int64(j)], row[j], err, bound)
			}
		}
	}
}

func TestQuantRoundTripRandom(t *testing.T) {
	rng := NewRNG(7)
	for _, shape := range [][]int64{{4, 64}, {3, 33}, {2, 31}, {1, 100}, {5, 1}, {128}} {
		checkRoundTrip(t, RandomFloats(rng, 2.5, shape...))
	}
}

func TestQuantSubnormalsAndZeros(t *testing.T) {
	sub := float32(math.Float32frombits(1)) // smallest positive subnormal
	src := FromFloats([]int64{2, 34}, make([]float32, 68))
	for i := range src.F {
		switch i % 3 {
		case 0:
			src.F[i] = sub
		case 1:
			src.F[i] = -sub * 7
		}
	}
	checkRoundTrip(t, src)
}

func TestQuantRejectsNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		src := FromFloats([]int64{1, 32}, make([]float32, 32))
		src.F[13] = bad
		if _, err := Quantize(src, Int8, 0); err == nil {
			t.Fatalf("Quantize accepted %v", bad)
		}
	}
}

func TestQuantRowSizeValidation(t *testing.T) {
	src := RandomFloats(NewRNG(1), 1, 5, 7)
	if _, err := Quantize(src, Int8, 4); err == nil {
		t.Fatal("row size 4 does not divide 35 elements; want error")
	}
	if _, err := Quantize(src, Float32, 0); err == nil {
		t.Fatal("Float32 is not a quantized format; want error")
	}
	qt, err := Quantize(src, Int8, 35)
	if err != nil {
		t.Fatalf("whole-tensor row: %v", err)
	}
	if qt.Q.Rows != 1 || qt.Q.Cols != 35 {
		t.Fatalf("grid %dx%d, want 1x35", qt.Q.Rows, qt.Q.Cols)
	}
}

func TestQuantBytesShrink(t *testing.T) {
	src := RandomFloats(NewRNG(3), 1, 256, 256)
	f32 := src.Bytes()
	// 1 byte/elem + a 4-byte scale per row.
	qt, err := Quantize(src, Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(qt.Bytes()) / float64(f32); ratio > 0.27 {
		t.Fatalf("bytes ratio %.3f, want <= 0.27", ratio)
	}
}

func TestQuantCloneAndReshape(t *testing.T) {
	src := RandomFloats(NewRNG(9), 1, 4, 32)
	qt, err := Quantize(src, Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := qt.Clone()
	c.Q.Data[0] ^= 0xFF
	if qt.Q.Data[0] == c.Q.Data[0] {
		t.Fatal("Clone shares quant payload")
	}
	r := qt.Reshaped([]int64{128})
	if r.Q != qt.Q {
		t.Fatal("Reshaped must share the quant payload")
	}
	if qt.Bytes() >= src.Bytes() {
		t.Fatalf("quantized bytes %d not below f32 %d", qt.Bytes(), src.Bytes())
	}
}

func TestQuantValidate(t *testing.T) {
	src := RandomFloats(NewRNG(5), 1, 3, 40)
	qt, err := Quantize(src, Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := qt.Q.Validate(qt.Shape); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	bad := qt.Q.clone()
	bad.Scales = bad.Scales[:len(bad.Scales)-1]
	if err := bad.Validate(qt.Shape); err == nil {
		t.Fatal("truncated scales accepted")
	}
	bad = qt.Q.clone()
	bad.Scales[0] = float32(math.Inf(1))
	if err := bad.Validate(qt.Shape); err == nil {
		t.Fatal("non-finite scale accepted")
	}
	bad = qt.Q.clone()
	bad.Rows = 7
	if err := bad.Validate(qt.Shape); err == nil {
		t.Fatal("mismatched grid accepted")
	}
}

// FuzzQuantRoundTrip drives random rows — including subnormals — through
// int8 and checks the analytic bound; non-finite inputs must be
// rejected, never encoded.
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(32), false)
	f.Add(uint64(2), int64(33), false)
	f.Add(uint64(3), int64(31), true)
	f.Add(uint64(4), int64(1), true)
	f.Fuzz(func(t *testing.T, seed uint64, cols int64, inject bool) {
		if cols < 1 || cols > 512 {
			t.Skip()
		}
		rng := NewRNG(seed)
		rows := int64(1 + rng.Intn(4))
		src := New(Float32, rows, cols)
		for i := range src.F {
			switch rng.Intn(8) {
			case 0:
				src.F[i] = 0
			case 1:
				src.F[i] = math.Float32frombits(uint32(rng.Uint64()) & 0x7FFFFF) // subnormal
			case 2:
				src.F[i] = -math.Float32frombits(uint32(rng.Uint64()) & 0x7FFFFF)
			default:
				src.F[i] = rng.NormFloat32() * 4
			}
		}
		if inject {
			bad := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
			src.F[rng.Intn(len(src.F))] = bad[rng.Intn(3)]
			if _, err := Quantize(src, Int8, 0); err == nil {
				t.Fatal("Quantize accepted non-finite input")
			}
			return
		}
		checkRoundTrip(t, src)
	})
}

// DTypeByName is String's inverse for every dtype the artifact loader
// accepts; any other name, including the retired 4-bit formats, is
// refused.
func TestDTypeByNameRoundTrip(t *testing.T) {
	for _, d := range []DType{Float32, Int64, Bool, Int8} {
		if got, ok := DTypeByName(d.String()); !ok || got != d {
			t.Errorf("DTypeByName(%q) = %v, %v; want %v, true", d.String(), got, ok, d)
		}
	}
	for _, name := range []string{"", "q4_0", "q4_1", "INT8", "dtype(9)"} {
		if d, ok := DTypeByName(name); ok {
			t.Errorf("DTypeByName(%q) = %v, accepted; want refused", name, d)
		}
	}
}

// DequantRow reconstructs each element as s·code, bit for bit.
func TestDequantRowIsScaleTimesCode(t *testing.T) {
	qt, err := Quantize(RandomFloats(NewRNG(17), 1, 3, 100), Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := qt.Q
	got := make([]float32, q.Cols)
	for r := int64(0); r < q.Rows; r++ {
		q.DequantRow(r, got)
		for j, v := range got {
			want := q.Scales[r] * float32(int8(q.Data[r*q.Cols+int64(j)]))
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("row %d elem %d = %v, want %v", r, j, v, want)
			}
		}
	}
}
