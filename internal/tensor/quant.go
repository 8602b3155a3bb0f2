// Quantized tensor storage: int8 with a per-row scale, a weight-only
// format. Quantized tensors keep their logical float shape; the packed
// payload lives in the Q field and kernels dequantize on the fly.
package tensor

import (
	"fmt"
	"math"
)

// QuantData is the packed payload of a quantized tensor. The logical
// element grid is viewed as [Rows][Cols] in storage order; each row is
// quantized independently so row boundaries never share a scale (GEMM
// reduction rows and conv filters stay self-contained).
//
//	Int8: Data holds Rows*Cols int8 values; Scales has one entry per row.
type QuantData struct {
	Format DType
	Rows   int64
	Cols   int64
	Scales []float32
	Data   []byte
}

// Bytes returns the resident payload size: packed data plus the scale
// table.
func (q *QuantData) Bytes() int64 {
	return int64(len(q.Data)) + 4*int64(len(q.Scales))
}

// tinyScale is the row magnitude below which quantization stores
// an exact-zero row: float32 scale arithmetic degenerates near the
// subnormal range, so the analytic error bounds carry this floor.
const tinyScale = 1e-30

// AbsErrorBound returns the analytic worst-case absolute error of
// quantizing one row whose values span [lo, hi]:
//
//	Int8: half the per-row step max(|lo|,|hi|)/127, i.e. absMax/254
//
// plus the tinyScale floor under which rows collapse to exact zero.
func AbsErrorBound(format DType, lo, hi float64) float64 {
	if format != Int8 {
		return math.Inf(1)
	}
	absMax := math.Max(math.Abs(lo), math.Abs(hi))
	// One float32 ulp of slack on the reconstruction product.
	bound := absMax/254 + absMax*float64(0x1p-22)
	if bound < tinyScale {
		bound = tinyScale
	}
	return bound
}

// IsQuantized reports whether the dtype is a packed weight format.
func (d DType) IsQuantized() bool { return d == Int8 }

// Quantize packs a float32 tensor into the given format. rowSize is the
// independent quantization group length in storage order (0 = the last
// dimension's extent) and must divide the element count. Inputs
// containing NaN or ±Inf are rejected: a non-finite weight has no
// representable code and would silently poison every value sharing its
// scale.
func Quantize(t *Tensor, format DType, rowSize int64) (*Tensor, error) {
	if t.DType != Float32 {
		return nil, fmt.Errorf("tensor: quantize of %s tensor", t.DType)
	}
	if !format.IsQuantized() {
		return nil, fmt.Errorf("tensor: %s is not a quantized format", format)
	}
	n := t.Len()
	if rowSize == 0 {
		if len(t.Shape) == 0 {
			rowSize = 1
		} else {
			rowSize = t.Shape[len(t.Shape)-1]
		}
	}
	if rowSize <= 0 || n%rowSize != 0 {
		return nil, fmt.Errorf("tensor: quantize row size %d does not divide %d elements", rowSize, n)
	}
	for i, v := range t.F {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("tensor: quantize input element %d is %v", i, v)
		}
	}
	q := &QuantData{Format: format, Rows: n / rowSize, Cols: rowSize,
		Scales: make([]float32, n/rowSize), Data: make([]byte, n)}
	quantizeInt8(t.F, q)
	return &Tensor{DType: format, Shape: append([]int64(nil), t.Shape...), Q: q}, nil
}

func quantizeInt8(src []float32, q *QuantData) {
	for r := int64(0); r < q.Rows; r++ {
		row := src[r*q.Cols : (r+1)*q.Cols]
		var absMax float64
		for _, v := range row {
			if a := math.Abs(float64(v)); a > absMax {
				absMax = a
			}
		}
		if absMax < tinyScale {
			continue // scale 0, all-zero codes
		}
		s := absMax / 127
		q.Scales[r] = float32(s)
		inv := 1 / s
		for j, v := range row {
			c := math.RoundToEven(float64(v) * inv)
			if c > 127 {
				c = 127
			} else if c < -127 {
				c = -127
			}
			q.Data[r*q.Cols+int64(j)] = byte(int8(c))
		}
	}
}

// DequantRow reconstructs storage row r into dst (len >= Cols).
func (q *QuantData) DequantRow(r int64, dst []float32) {
	dst = dst[:q.Cols]
	s := q.Scales[r]
	for j, c := range q.Data[r*q.Cols : (r+1)*q.Cols] {
		dst[j] = s * float32(int8(c))
	}
}

// Dequantize reconstructs the full float32 tensor.
func (t *Tensor) Dequantize() *Tensor {
	if !t.DType.IsQuantized() {
		return t
	}
	out := New(Float32, t.Shape...)
	q := t.Q
	for r := int64(0); r < q.Rows; r++ {
		q.DequantRow(r, out.F[r*q.Cols:(r+1)*q.Cols])
	}
	return out
}

// clone deep-copies the payload.
func (q *QuantData) clone() *QuantData {
	return &QuantData{
		Format: q.Format,
		Rows:   q.Rows,
		Cols:   q.Cols,
		Scales: append([]float32(nil), q.Scales...),
		Data:   append([]byte(nil), q.Data...),
	}
}

// DTypeByName maps a storage-format name back to its DType — the
// inverse of DType.String for the formats artifacts and CLIs name.
func DTypeByName(name string) (DType, bool) {
	switch name {
	case "float32":
		return Float32, true
	case "int64":
		return Int64, true
	case "bool":
		return Bool, true
	case "int8":
		return Int8, true
	}
	return Float32, false
}

// Validate checks internal payload consistency against the logical
// shape — the artifact loader calls this on untrusted bytes.
func (q *QuantData) Validate(shape []int64) error {
	if !q.Format.IsQuantized() {
		return fmt.Errorf("tensor: quant payload with format %s", q.Format)
	}
	if q.Rows <= 0 || q.Cols <= 0 || q.Rows*q.Cols != NumElems(shape) {
		return fmt.Errorf("tensor: quant grid %dx%d does not cover shape %v", q.Rows, q.Cols, shape)
	}
	if int64(len(q.Data)) != q.Rows*q.Cols || int64(len(q.Scales)) != q.Rows {
		return fmt.Errorf("tensor: int8 payload sizes scales=%d data=%d for grid %dx%d",
			len(q.Scales), len(q.Data), q.Rows, q.Cols)
	}
	for i, s := range q.Scales {
		if f := float64(s); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("tensor: quant scale %d is %v", i, s)
		}
	}
	return nil
}
