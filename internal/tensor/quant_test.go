package tensor

import (
	"math"
	"testing"
)

var quantFormats = []DType{Int8, Q4_0, Q4_1}

// maxRoundTripErr quantizes, dequantizes, and returns the largest
// absolute error alongside the per-row/block analytic bound check.
func checkRoundTrip(t *testing.T, src *Tensor, format DType) {
	t.Helper()
	qt, err := Quantize(src, format, 0)
	if err != nil {
		t.Fatalf("Quantize(%s): %v", format, err)
	}
	got := qt.Dequantize()
	q := qt.Q
	for r := int64(0); r < q.Rows; r++ {
		row := src.F[r*q.Cols : (r+1)*q.Cols]
		// Group extent: whole row for int8, 32-blocks for Q4.
		group := q.Cols
		if format != Int8 {
			group = QBlock
		}
		for lo := int64(0); lo < q.Cols; lo += group {
			hi := lo + group
			if hi > q.Cols {
				hi = q.Cols
			}
			gLo, gHi := math.Inf(1), math.Inf(-1)
			for _, v := range row[lo:hi] {
				f := float64(v)
				if f < gLo {
					gLo = f
				}
				if f > gHi {
					gHi = f
				}
			}
			bound := AbsErrorBound(format, gLo, gHi)
			for j := lo; j < hi; j++ {
				err := math.Abs(float64(got.F[r*q.Cols+j]) - float64(row[j]))
				if err > bound {
					t.Fatalf("%s row %d elem %d: |%g - %g| = %g exceeds bound %g",
						format, r, j, got.F[r*q.Cols+j], row[j], err, bound)
				}
			}
		}
	}
}

func TestQuantRoundTripRandom(t *testing.T) {
	rng := NewRNG(7)
	for _, format := range quantFormats {
		for _, shape := range [][]int64{{4, 64}, {3, 33}, {2, 31}, {1, 100}, {5, 1}, {128}} {
			src := RandomFloats(rng, 2.5, shape...)
			checkRoundTrip(t, src, format)
		}
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
	for _, format := range quantFormats {
		checkRoundTrip(t, src, format)
	}
}

func TestQuantRejectsNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		src := FromFloats([]int64{1, 32}, make([]float32, 32))
		src.F[13] = bad
		for _, format := range quantFormats {
			if _, err := Quantize(src, format, 0); err == nil {
				t.Fatalf("Quantize(%s) accepted %v", format, bad)
			}
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
	// int8: 1 byte/elem + scale/row; Q4_0: 20 bytes per 32 elems
	// (0.15625x); Q4_1: 24 bytes per 32 elems (0.1875x).
	wantMax := map[DType]float64{Int8: 0.27, Q4_0: 0.16, Q4_1: 0.19}
	for _, format := range quantFormats {
		qt, err := Quantize(src, format, 0)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(qt.Bytes()) / float64(f32)
		if ratio > wantMax[format] {
			t.Fatalf("%s bytes ratio %.3f, want <= %.2f", format, ratio, wantMax[format])
		}
	}
}

func TestQuantCloneAndReshape(t *testing.T) {
	src := RandomFloats(NewRNG(9), 1, 4, 32)
	qt, err := Quantize(src, Q4_1, 0)
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
	qt, err := Quantize(src, Q4_0, 0)
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

// FuzzQuantRoundTrip drives random blocks — including subnormals and
// ragged tails — through every format and checks the analytic bound;
// non-finite inputs must be rejected, never encoded.
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(32), uint8(0), false)
	f.Add(uint64(2), int64(33), uint8(1), false)
	f.Add(uint64(3), int64(31), uint8(2), true)
	f.Add(uint64(4), int64(1), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, cols int64, fsel uint8, inject bool) {
		if cols < 1 || cols > 512 {
			t.Skip()
		}
		format := quantFormats[int(fsel)%len(quantFormats)]
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
			if _, err := Quantize(src, format, 0); err == nil {
				t.Fatalf("Quantize(%s) accepted non-finite input", format)
			}
			return
		}
		checkRoundTrip(t, src, format)
	})
}

// DequantCols over any column range is that range of the row, and each
// value is its format's reconstruction: s·code for int8, s·(nibble−8)
// for Q4_0, s·nibble + min for Q4_1, bit for bit. The ranges cut 4-bit
// blocks anywhere, and Cols is not a multiple of the block.
func TestDequantColsMatchesRow(t *testing.T) {
	src := RandomFloats(NewRNG(17), 1, 3, 100)
	ranges := [][2]int64{{0, 100}, {5, 37}, {32, 64}, {64, 100}, {31, 33}, {99, 100}, {10, 10}}
	for _, format := range quantFormats {
		qt, err := Quantize(src, format, 0)
		if err != nil {
			t.Fatal(err)
		}
		q := qt.Q
		for r := int64(0); r < q.Rows; r++ {
			want := make([]float32, q.Cols)
			for j := int64(0); j < q.Cols; j++ {
				bi := r*q.BlocksPerRow() + j/QBlock
				switch format {
				case Int8:
					want[j] = q.Scales[r] * float32(int8(q.Data[r*q.Cols+j]))
				case Q4_0:
					want[j] = q.Scales[bi] * float32(int64(getNibble(q.Data[bi*QBlockBytes:], int(j%QBlock)))-8)
				case Q4_1:
					want[j] = q.Scales[bi]*float32(getNibble(q.Data[bi*QBlockBytes:], int(j%QBlock))) + q.Mins[bi]
				}
			}
			for _, rg := range ranges {
				got := make([]float32, rg[1]-rg[0])
				q.DequantCols(r, rg[0], rg[1], got)
				for j, v := range got {
					if math.Float32bits(v) != math.Float32bits(want[rg[0]+int64(j)]) {
						t.Fatalf("%s row %d cols %v: elem %d = %v, want %v", format, r, rg, j, v, want[rg[0]+int64(j)])
					}
				}
			}
		}
	}
}
