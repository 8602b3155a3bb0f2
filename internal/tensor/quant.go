// Block-quantized tensor storage: int8 with a per-row scale, and the
// 4-bit block formats Q4_0 (per-block scale) and Q4_1 (per-block
// scale + minimum), in the llama.cpp family of weight-only formats.
// Quantized tensors keep their logical float shape; the packed payload
// lives in the Q field and kernels dequantize on the fly.
package tensor

import (
	"fmt"
	"math"
)

// Quantized element-block geometry.
const (
	// QBlock is the 4-bit block length: 32 elements per scale (Q4_0)
	// or per scale+min pair (Q4_1).
	QBlock = 32
	// QBlockBytes is the packed size of one 4-bit block: 32 nibbles.
	QBlockBytes = QBlock / 2
)

// QuantData is the packed payload of a quantized tensor. The logical
// element grid is viewed as [Rows][Cols] in storage order; each row is
// quantized independently so row boundaries never share a scale (GEMM
// reduction rows and conv filters stay self-contained).
//
//	Int8: Data holds Rows*Cols int8 values; Scales has one entry per row.
//	Q4_0: each row splits into ceil(Cols/32) blocks of 16 packed bytes;
//	      Scales has one entry per block.
//	Q4_1: as Q4_0 plus a per-block minimum in Mins.
type QuantData struct {
	Format DType
	Rows   int64
	Cols   int64
	Scales []float32
	Mins   []float32
	Data   []byte
}

// BlocksPerRow returns the 4-bit block count per row (0 for Int8).
func (q *QuantData) BlocksPerRow() int64 {
	if q.Format == Int8 {
		return 0
	}
	return (q.Cols + QBlock - 1) / QBlock
}

// Bytes returns the resident payload size: packed data plus scale and
// minimum side tables.
func (q *QuantData) Bytes() int64 {
	return int64(len(q.Data)) + 4*int64(len(q.Scales)) + 4*int64(len(q.Mins))
}

// tinyScale is the row/block magnitude below which quantization stores
// an exact-zero row: float32 scale arithmetic degenerates near the
// subnormal range, so the analytic error bounds carry this floor.
const tinyScale = 1e-30

// AbsErrorBound returns the analytic worst-case absolute error of
// quantizing one row/block whose values span [lo, hi]:
//
//	Int8: half the per-row step max(|lo|,|hi|)/127, i.e. absMax/254
//	Q4_0: half the per-block step absMax/7, i.e. absMax/14
//	Q4_1: half the affine step (hi-lo)/15, i.e. (hi-lo)/30
//
// plus the tinyScale floor under which rows collapse to exact zero.
func AbsErrorBound(format DType, lo, hi float64) float64 {
	absMax := math.Max(math.Abs(lo), math.Abs(hi))
	var bound float64
	switch format {
	case Int8:
		bound = absMax / 254
	case Q4_0:
		bound = absMax / 14
	case Q4_1:
		bound = (hi - lo) / 30
	default:
		return math.Inf(1)
	}
	// One float32 ulp of slack on the reconstruction product.
	bound += absMax * float64(0x1p-22)
	if bound < tinyScale {
		bound = tinyScale
	}
	return bound
}

// IsQuantized reports whether the dtype is a packed weight format.
func (d DType) IsQuantized() bool {
	switch d {
	case Int8, Q4_0, Q4_1:
		return true
	}
	return false
}

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
	q := &QuantData{Format: format, Rows: n / rowSize, Cols: rowSize}
	switch format {
	case Int8:
		q.Scales = make([]float32, q.Rows)
		q.Data = make([]byte, n)
		quantizeInt8(t.F, q)
	case Q4_0, Q4_1:
		bpr := q.BlocksPerRow()
		q.Scales = make([]float32, q.Rows*bpr)
		if format == Q4_1 {
			q.Mins = make([]float32, q.Rows*bpr)
		}
		q.Data = make([]byte, q.Rows*bpr*QBlockBytes)
		quantizeQ4(t.F, q)
	}
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

func quantizeQ4(src []float32, q *QuantData) {
	bpr := q.BlocksPerRow()
	for r := int64(0); r < q.Rows; r++ {
		row := src[r*q.Cols : (r+1)*q.Cols]
		for b := int64(0); b < bpr; b++ {
			lo := b * QBlock
			hi := lo + QBlock
			if hi > q.Cols {
				hi = q.Cols
			}
			blk := row[lo:hi]
			bi := r*bpr + b
			data := q.Data[bi*QBlockBytes : (bi+1)*QBlockBytes]
			if q.Format == Q4_0 {
				packQ40(blk, bi, data, q)
			} else {
				packQ41(blk, bi, data, q)
			}
		}
	}
}

// packQ40 encodes a symmetric block: codes in [-7,7] stored biased by 8,
// so nibble 8 is exact zero.
func packQ40(blk []float32, bi int64, data []byte, q *QuantData) {
	var absMax float64
	for _, v := range blk {
		if a := math.Abs(float64(v)); a > absMax {
			absMax = a
		}
	}
	if absMax < tinyScale {
		fillNibbles(data, 8)
		return
	}
	s := absMax / 7
	q.Scales[bi] = float32(s)
	inv := 1 / s
	fillNibbles(data, 8)
	for j, v := range blk {
		c := math.RoundToEven(float64(v) * inv)
		if c > 7 {
			c = 7
		} else if c < -7 {
			c = -7
		}
		putNibble(data, j, byte(int64(c)+8))
	}
}

// packQ41 encodes an affine block: codes in [0,15] over [min, max].
func packQ41(blk []float32, bi int64, data []byte, q *QuantData) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range blk {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	q.Mins[bi] = float32(lo)
	if hi-lo < tinyScale {
		// Constant block: every code 0 reconstructs to min.
		fillNibbles(data, 0)
		return
	}
	s := (hi - lo) / 15
	q.Scales[bi] = float32(s)
	inv := 1 / s
	for j, v := range blk {
		c := math.RoundToEven((float64(v) - lo) * inv)
		if c > 15 {
			c = 15
		} else if c < 0 {
			c = 0
		}
		putNibble(data, j, byte(c))
	}
}

func fillNibbles(data []byte, nib byte) {
	v := nib | nib<<4
	for i := range data {
		data[i] = v
	}
}

func putNibble(data []byte, j int, nib byte) {
	if j&1 == 0 {
		data[j>>1] = data[j>>1]&0xF0 | nib
	} else {
		data[j>>1] = data[j>>1]&0x0F | nib<<4
	}
}

func getNibble(data []byte, j int) byte {
	if j&1 == 0 {
		return data[j>>1] & 0x0F
	}
	return data[j>>1] >> 4
}

// DequantRow reconstructs storage row r into dst (len >= Cols).
func (q *QuantData) DequantRow(r int64, dst []float32) {
	q.DequantCols(r, 0, q.Cols, dst)
}

// DequantCols reconstructs columns [lo, hi) of storage row r into
// dst[:hi-lo], each value computed as DequantRow computes it.
func (q *QuantData) DequantCols(r, lo, hi int64, dst []float32) {
	dst = dst[:hi-lo]
	switch q.Format {
	case Int8:
		s := q.Scales[r]
		for j, c := range q.Data[r*q.Cols+lo : r*q.Cols+hi] {
			dst[j] = s * float32(int8(c))
		}
	case Q4_0, Q4_1:
		bpr := q.BlocksPerRow()
		for b := lo / QBlock; b*QBlock < hi; b++ {
			bi := r*bpr + b
			data := q.Data[bi*QBlockBytes : (bi+1)*QBlockBytes]
			j0, j1 := max(lo, b*QBlock), min(hi, (b+1)*QBlock)
			s := q.Scales[bi]
			if q.Format == Q4_0 {
				for j := j0; j < j1; j++ {
					dst[j-lo] = s * float32(int64(getNibble(data, int(j-b*QBlock)))-8)
				}
				continue
			}
			m := q.Mins[bi]
			for j := j0; j < j1; j++ {
				dst[j-lo] = s*float32(getNibble(data, int(j-b*QBlock))) + m
			}
		}
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
		Mins:   append([]float32(nil), q.Mins...),
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
	case "q4_0":
		return Q4_0, true
	case "q4_1":
		return Q4_1, true
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
	switch q.Format {
	case Int8:
		if int64(len(q.Data)) != q.Rows*q.Cols || int64(len(q.Scales)) != q.Rows || len(q.Mins) != 0 {
			return fmt.Errorf("tensor: int8 payload sizes scales=%d data=%d for grid %dx%d",
				len(q.Scales), len(q.Data), q.Rows, q.Cols)
		}
	default:
		blocks := q.Rows * q.BlocksPerRow()
		wantMins := 0
		if q.Format == Q4_1 {
			wantMins = int(blocks)
		}
		if int64(len(q.Data)) != blocks*QBlockBytes || int64(len(q.Scales)) != blocks || len(q.Mins) != wantMins {
			return fmt.Errorf("tensor: %s payload sizes scales=%d mins=%d data=%d for %d blocks",
				q.Format, len(q.Scales), len(q.Mins), len(q.Data), blocks)
		}
	}
	for i, s := range q.Scales {
		if f := float64(s); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("tensor: quant scale %d is %v", i, s)
		}
	}
	for i, m := range q.Mins {
		if f := float64(m); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("tensor: quant min %d is %v", i, m)
		}
	}
	return nil
}
