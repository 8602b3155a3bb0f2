package kernels

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// cumSumKernel computes the running sum along an axis.
func cumSumKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "CumSum"); err != nil {
		return nil, err
	}
	x := in[0]
	axis := int64(0)
	if len(in) > 1 && in[1] != nil && in[1].Len() > 0 {
		axis = in[1].I[0]
	}
	if axis < 0 {
		axis += int64(x.Rank())
	}
	exclusive := n.AttrInt("exclusive", 0) != 0
	reverse := n.AttrInt("reverse", 0) != 0
	out := ctx.Out(0, tensor.Float32, x.Shape...)
	outer := tensor.NumElems(x.Shape[:axis])
	axisLen := x.Shape[axis]
	inner := tensor.NumElems(x.Shape[axis+1:])
	for o := int64(0); o < outer; o++ {
		for i := int64(0); i < inner; i++ {
			var acc float32
			for a := int64(0); a < axisLen; a++ {
				idx := a
				if reverse {
					idx = axisLen - 1 - a
				}
				flat := (o*axisLen+idx)*inner + i
				if exclusive {
					out.F[flat] = acc
					acc += x.F[flat]
				} else {
					acc += x.F[flat]
					out.F[flat] = acc
				}
			}
		}
	}
	return []*tensor.Tensor{out}, nil
}

// triluKernel keeps the upper (upper=1) or lower triangle of the last
// two dims, zeroing the rest; k shifts the diagonal.
func triluKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Trilu"); err != nil {
		return nil, err
	}
	x := in[0]
	if x.Rank() < 2 {
		return nil, fmt.Errorf("Trilu: rank %d", x.Rank())
	}
	upper := n.AttrInt("upper", 1) != 0
	k := int64(0)
	if len(in) > 1 && in[1] != nil && in[1].Len() > 0 {
		k = in[1].I[0]
	}
	rows := x.Shape[x.Rank()-2]
	cols := x.Shape[x.Rank()-1]
	batch := x.Len() / (rows * cols)
	out := ctx.Out(0, x.DType, x.Shape...)
	copySpan(out, 0, x, 0, x.Len())
	for b := int64(0); b < batch; b++ {
		base := b * rows * cols
		for r := int64(0); r < rows; r++ {
			for c := int64(0); c < cols; c++ {
				keep := c >= r+k // upper
				if !upper {
					keep = c <= r+k
				}
				if !keep {
					out.F[base+r*cols+c] = 0
				}
			}
		}
	}
	return []*tensor.Tensor{out}, nil
}

// scatterElementsKernel writes updates into a copy of data at the
// indices along axis (ONNX ScatterElements, reduction=none).
func scatterElementsKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 3, "ScatterElements"); err != nil {
		return nil, err
	}
	data, indices, updates := in[0], in[1], in[2]
	axis := n.AttrInt("axis", 0)
	if axis < 0 {
		axis += int64(data.Rank())
	}
	out := ctx.Out(0, data.DType, data.Shape...)
	copySpan(out, 0, data, 0, data.Len())
	// Walk the indices with data's strides, the axis dim excepted: along
	// it the index tensor's value, not its position, picks the element.
	strides := tensor.Strides(data.Shape)
	axisStride := strides[axis]
	strides[axis] = 0
	w := newWalk(indices.Shape, strides)
	flat := 0
	for c := w.seek(0, w.n); c.next(); {
		for i := int64(0); i < c.n; i++ {
			target := indices.I[flat]
			if target < 0 {
				target += data.Shape[axis]
			}
			if target < 0 || target >= data.Shape[axis] {
				return nil, fmt.Errorf("ScatterElements: index %d out of range", target)
			}
			out.F[c.off[0]+i*w.inner(0)+target*axisStride] = updates.F[flat]
			flat++
		}
	}
	return []*tensor.Tensor{out}, nil
}

func init() {
	unary("CumSum", cumSumKernel) // shape-preserving along the axis
	unary("Trilu", triluKernel)   // shape-preserving triangle mask
	// ScatterElements: output shape equals the data input's.
	Register(&Def{Type: "ScatterElements", Class: ISDOS, Forward: forwardUnary(false), Kernel: scatterElementsKernel})
	unary("Softsign", mapOp(func(v float32) float32 { return v / (1 + float32(math.Abs(float64(v)))) }))
	unary("Sin", mapOp(func(v float32) float32 { return float32(math.Sin(float64(v))) }))
	unary("Cos", mapOp(func(v float32) float32 { return float32(math.Cos(float64(v))) }))
	unary("ThresholdedRelu", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, "ThresholdedRelu"); err != nil {
			return nil, err
		}
		alpha := float32(n.AttrFloat("alpha", 1.0))
		x := in[0]
		out := ctx.Out(0, tensor.Float32, x.Shape...)
		for i, v := range x.F {
			if v > alpha {
				out.F[i] = v
			} else {
				out.F[i] = 0
			}
		}
		return []*tensor.Tensor{out}, nil
	})
}
