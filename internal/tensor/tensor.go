// Package tensor provides the dense runtime tensors that SoD²'s executor
// and kernels operate on. Tensors are row-major with float32, int64, or
// bool element types — the three types the reproduced models need.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// DType enumerates supported element types.
type DType uint8

const (
	// Float32 is the CPU inference type used throughout the paper.
	Float32 DType = iota
	// Int64 is used for shape tensors, indices, and axes.
	Int64
	// Bool is used for masks and control-flow predicates.
	Bool
	// Int8 is weight-only quantized storage with a per-row scale.
	Int8
)

func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Int64:
		return "int64"
	case Bool:
		return "bool"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(d))
	}
}

// Size returns the byte width of one element. Int8 reports its 1-byte
// code; exact accounting always goes through Tensor.Bytes, which adds
// the packed payload's scale table.
func (d DType) Size() int64 {
	switch d {
	case Float32:
		return 4
	case Int64:
		return 8
	case Bool, Int8:
		return 1
	default:
		return 0
	}
}

// Tensor is a dense row-major tensor. Exactly one of F, I, B, Q is
// non-nil according to DType (Q for the quantized weight formats; the
// logical Shape stays the float shape). A rank-0 tensor has an empty
// Shape and one element.
type Tensor struct {
	DType DType
	Shape []int64
	F     []float32
	I     []int64
	B     []bool
	Q     *QuantData
}

// NumElems returns the product of dims (1 for scalars).
func NumElems(shape []int64) int64 {
	n := int64(1)
	for _, d := range shape {
		n *= d
	}
	return n
}

// New allocates a zero tensor of the given type and shape.
func New(dt DType, shape ...int64) *Tensor {
	n := NumElems(shape)
	t := &Tensor{DType: dt, Shape: append([]int64(nil), shape...)}
	switch dt {
	case Float32:
		t.F = make([]float32, n)
	case Int64:
		t.I = make([]int64, n)
	case Bool:
		t.B = make([]bool, n)
	}
	return t
}

// FromFloats builds a float32 tensor from data (copied).
func FromFloats(shape []int64, data []float32) *Tensor {
	if int64(len(data)) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: %d elements for shape %v", len(data), shape))
	}
	return &Tensor{DType: Float32, Shape: append([]int64(nil), shape...), F: append([]float32(nil), data...)}
}

// FromInts builds an int64 tensor from data (copied).
func FromInts(shape []int64, data []int64) *Tensor {
	if int64(len(data)) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: %d elements for shape %v", len(data), shape))
	}
	return &Tensor{DType: Int64, Shape: append([]int64(nil), shape...), I: append([]int64(nil), data...)}
}

// FromBools builds a bool tensor from data (copied).
func FromBools(shape []int64, data []bool) *Tensor {
	if int64(len(data)) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: %d elements for shape %v", len(data), shape))
	}
	return &Tensor{DType: Bool, Shape: append([]int64(nil), shape...), B: append([]bool(nil), data...)}
}

// Scalar builds a rank-0 float32 tensor.
func Scalar(v float32) *Tensor { return FromFloats(nil, []float32{v}) }

// ScalarInt builds a rank-0 int64 tensor.
func ScalarInt(v int64) *Tensor { return FromInts(nil, []int64{v}) }

// ScalarBool builds a rank-0 bool tensor.
func ScalarBool(v bool) *Tensor { return FromBools(nil, []bool{v}) }

// Len returns the number of elements.
func (t *Tensor) Len() int64 { return NumElems(t.Shape) }

// Bytes returns the payload size in bytes. Quantized tensors report
// their packed size (data plus scale/min tables), not the float size.
func (t *Tensor) Bytes() int64 {
	if t.Q != nil {
		return t.Q.Bytes()
	}
	return t.Len() * t.DType.Size()
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{DType: t.DType, Shape: append([]int64(nil), t.Shape...)}
	switch t.DType {
	case Float32:
		c.F = append([]float32(nil), t.F...)
	case Int64:
		c.I = append([]int64(nil), t.I...)
	case Bool:
		c.B = append([]bool(nil), t.B...)
	case Int8:
		c.Q = t.Q.clone()
	}
	return c
}

// Reshaped returns a view-like tensor with a new shape sharing the data.
func (t *Tensor) Reshaped(shape []int64) *Tensor {
	if NumElems(shape) != t.Len() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v", t.Shape, shape))
	}
	return &Tensor{DType: t.DType, Shape: append([]int64(nil), shape...), F: t.F, I: t.I, B: t.B, Q: t.Q}
}

// Strides returns row-major strides for shape.
func Strides(shape []int64) []int64 {
	s := make([]int64, len(shape))
	acc := int64(1)
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
	return s
}

// Offset computes the flat index of the multi-index idx.
func Offset(strides, idx []int64) int64 {
	var off int64
	for i, v := range idx {
		off += strides[i] * v
	}
	return off
}

// Fill sets every float element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.F {
		t.F[i] = v
	}
}

// At returns the float element at the multi-index.
func (t *Tensor) At(idx ...int64) float32 {
	return t.F[Offset(Strides(t.Shape), idx)]
}

// Set assigns the float element at the multi-index.
func (t *Tensor) Set(v float32, idx ...int64) {
	t.F[Offset(Strides(t.Shape), idx)] = v
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether two float tensors match within tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if a.DType != Float32 || b.DType != Float32 || !SameShape(a.Shape, b.Shape) {
		return false
	}
	for i := range a.F {
		if math.Abs(float64(a.F[i]-b.F[i])) > tol {
			return false
		}
	}
	return true
}

// BroadcastShapes computes the NumPy-style broadcast result of two shapes.
func BroadcastShapes(a, b []int64) ([]int64, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		av, bv := int64(1), int64(1)
		if i >= n-len(a) {
			av = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			bv = b[i-(n-len(b))]
		}
		switch {
		case av == bv:
			out[i] = av
		case av == 1:
			out[i] = bv
		case bv == 1:
			out[i] = av
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast %v with %v", a, b)
		}
	}
	return out, nil
}

// BroadcastStrides returns the strides that address a row-major tensor of
// shape src along the dims of the shape dst it broadcasts to: src's own
// stride where the extents agree, 0 where src has extent 1 or no dim at
// all, so every index along that dim reads the same element.
func BroadcastStrides(src, dst []int64) []int64 {
	out := make([]int64, len(dst))
	pad := len(dst) - len(src)
	acc := int64(1)
	for j := len(src) - 1; j >= 0; j-- {
		if src[j] != 1 {
			out[pad+j] = acc
		}
		acc *= src[j]
	}
	return out
}

// PermuteStrides returns the strides that address a row-major tensor of
// the given shape along the dims of its transpose: output dim i walks
// input dim perm[i].
func PermuteStrides(shape, perm []int64) []int64 {
	in := Strides(shape)
	out := make([]int64, len(perm))
	for i, p := range perm {
		out[i] = in[p]
	}
	return out
}

// SliceBounds resolves one axis of an ONNX Slice over a dim of n
// elements: a negative start or end counts from the end, and both clamp
// to the range the step walks — [0, n] forward, [-1, n-1] backward. It
// returns the first index taken and how many elements the slice takes.
// step must be non-zero.
func SliceBounds(start, end, step, n int64) (first, count int64) {
	if n <= 0 {
		return 0, 0
	}
	if start < 0 {
		start += n
	}
	if end < 0 {
		end += n
	}
	if step > 0 {
		start, end = min(max(start, 0), n), min(max(end, 0), n)
		if end > start {
			count = (end - start + step - 1) / step
		}
		return start, count
	}
	start, end = min(max(start, 0), n-1), min(max(end, -1), n-1)
	if start > end {
		count = (start - end - step - 1) / -step
	}
	return start, count
}

// SliceStrides returns the strides and the base offset that address the
// slice taking every step[i]-th element from start[i] along each dim of a
// row-major tensor of the given shape. A negative step walks backwards.
func SliceStrides(shape, start, step []int64) (strides []int64, base int64) {
	strides = Strides(shape)
	base = Offset(strides, start)
	for i := range strides {
		strides[i] *= step[i]
	}
	return strides, base
}

func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor(%s, %v", t.DType, t.Shape)
	n := t.Len()
	if n <= 8 {
		switch t.DType {
		case Float32:
			fmt.Fprintf(&b, ", %v", t.F)
		case Int64:
			fmt.Fprintf(&b, ", %v", t.I)
		case Bool:
			fmt.Fprintf(&b, ", %v", t.B)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// RNG is a small deterministic PRNG (xorshift64*) used for reproducible
// synthetic weights and inputs without importing math/rand state.
type RNG struct{ s uint64 }

// NewRNG seeds a deterministic generator (seed 0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Float32 returns a uniform value in [0,1).
func (r *RNG) Float32() float32 { return float32(r.Uint64()>>40) / float32(1<<24) }

// NormFloat32 returns an approximately standard-normal value
// (Irwin–Hall sum of 12 uniforms).
func (r *RNG) NormFloat32() float32 {
	var s float32
	for i := 0; i < 12; i++ {
		s += r.Float32()
	}
	return s - 6
}

// Intn returns a uniform value in [0,n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// RandomFloats fills a new float tensor with scaled normal values.
func RandomFloats(rng *RNG, scale float32, shape ...int64) *Tensor {
	t := New(Float32, shape...)
	for i := range t.F {
		t.F[i] = rng.NormFloat32() * scale
	}
	return t
}
