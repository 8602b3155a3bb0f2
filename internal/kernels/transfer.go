package kernels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// DynClass is the dynamism degree of an operator.
type DynClass uint8

// The four dynamism classes of Table 2.
const (
	ISDO DynClass = iota
	ISDOS
	ISVDOS
	EDO
)

func (c DynClass) String() string {
	switch c {
	case ISDO:
		return "InputShapeDeterminedOutput"
	case ISDOS:
		return "InputShapeDeterminedOutputShape"
	case ISVDOS:
		return "InputShape&ValueDeterminedOutputShape"
	case EDO:
		return "ExecutionDeterminedOutput"
	default:
		return fmt.Sprintf("DynClass(%d)", uint8(c))
	}
}

// InferCtx carries the lattice state visible to a transfer function.
type InferCtx struct {
	Node *graph.Node
	// In holds the current lattice info of each input (aligned with
	// Node.Inputs; omitted optional inputs are fully undef).
	In []lattice.Info
	// Out holds the current lattice info of each output.
	Out []lattice.Info
	// FreshSym mints a fresh symbolic constant (used by ISDO value
	// assignment and by operators that introduce new unknowns).
	FreshSym func(hint string) symbolic.Expr
	// Initializer resolves constant tensors by value name (nil if the
	// input is not a compile-time constant).
	Initializer func(name string) *tensor.Tensor
}

// InConst returns the initializer tensor behind input i, if any.
func (c *InferCtx) InConst(i int) *tensor.Tensor {
	if c.Initializer == nil || i >= len(c.Node.Inputs) || c.Node.Inputs[i] == "" {
		return nil
	}
	return c.Initializer(c.Node.Inputs[i])
}

// InShape returns the lattice shape of input i (undef when absent).
func (c *InferCtx) InShape(i int) lattice.Shape {
	if i >= len(c.In) {
		return lattice.UndefShape()
	}
	return c.In[i].Shape
}

// InValue returns the lattice value of input i (undef when absent).
func (c *InferCtx) InValue(i int) lattice.ValueInfo {
	if i >= len(c.In) {
		return lattice.UndefValue()
	}
	return c.In[i].Value
}

// ForwardFn computes the output infos from the inputs. Returning an info
// with undef components means "no information" — the driver meets the
// result into the existing out-map.
type ForwardFn func(ctx *InferCtx) ([]lattice.Info, error)

// BackwardFn refines the *input* infos from the output infos. It returns
// one info per input; undef components mean "no refinement".
type BackwardFn func(ctx *InferCtx) ([]lattice.Info, error)

// nOutputs returns infos sized to the node's outputs, fully undef.
func nOutputs(node *graph.Node) []lattice.Info {
	out := make([]lattice.Info, len(node.Outputs))
	for i := range out {
		out[i] = lattice.UndefInfo()
	}
	return out
}

// nInputs returns infos sized to the node's inputs, fully undef.
func nInputs(node *graph.Node) []lattice.Info {
	out := make([]lattice.Info, len(node.Inputs))
	for i := range out {
		out[i] = lattice.UndefInfo()
	}
	return out
}

// forwardUnary: output shape (and, when carry is true, tracked value)
// equals the input's.
func forwardUnary(carryValue bool) ForwardFn {
	return func(ctx *InferCtx) ([]lattice.Info, error) {
		out := nOutputs(ctx.Node)
		out[0].Shape = ctx.InShape(0)
		if carryValue {
			out[0].Value = ctx.InValue(0)
		}
		return out, nil
	}
}

// backwardUnary: input shape equals the output shape.
func backwardUnary(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	if len(in) > 0 {
		in[0].Shape = ctx.Out[0].Shape
	}
	return in, nil
}

// BroadcastDims applies the NumPy broadcasting rule to a pair of lattice
// dimensions. The key symbolic insight (paper Fig. 4): when one side is a
// known constant c ≠ 1, the broadcast result is c regardless of the other
// side (the other side must be 1 or c for the program to be valid); when
// the two sides are canonically equal the result is that expression.
func BroadcastDims(a, b lattice.Dim) lattice.Dim {
	if a.IsNAC() || b.IsNAC() {
		return lattice.NAC()
	}
	if a.IsUndef() || b.IsUndef() {
		// If the defined side is a known constant ≠ 1, the result is
		// determined even without the other operand.
		other := a
		if a.IsUndef() {
			other = b
		}
		if v, ok := other.Const(); ok && v != 1 {
			return other
		}
		return lattice.Undef()
	}
	av, aConst := a.Const()
	bv, bConst := b.Const()
	switch {
	case aConst && av == 1:
		return b
	case bConst && bv == 1:
		return a
	case symbolic.Equal(a.E, b.E):
		return a
	case aConst && !bConst:
		return a // b must be 1 or av at runtime; result is av either way
	case bConst && !aConst:
		return b
	case aConst && bConst:
		return lattice.NAC() // genuinely incompatible constants
	default:
		// Two distinct symbolic expressions: result is whichever is not 1;
		// statically that is max(a,b) as an op-inferred constant.
		return lattice.FromExpr(symbolic.Max(a.E, b.E))
	}
}

// BroadcastShape computes the broadcast of two lattice shapes.
func BroadcastShape(a, b lattice.Shape) lattice.Shape {
	if a.IsNAC() || b.IsNAC() {
		return lattice.NACShape()
	}
	if a.IsUndef() || b.IsUndef() {
		return lattice.UndefShape()
	}
	n := len(a.Dims)
	if len(b.Dims) > n {
		n = len(b.Dims)
	}
	dims := make([]lattice.Dim, n)
	for i := 0; i < n; i++ {
		ad, bd := lattice.FromInt(1), lattice.FromInt(1)
		if i >= n-len(a.Dims) {
			ad = a.Dims[i-(n-len(a.Dims))]
		}
		if i >= n-len(b.Dims) {
			bd = b.Dims[i-(n-len(b.Dims))]
		}
		dims[i] = BroadcastDims(ad, bd)
	}
	return lattice.Ranked(dims...)
}

// shapeFromTensor lifts a concrete initializer shape into the lattice.
func shapeFromTensor(t *tensor.Tensor) lattice.Shape {
	return lattice.FromInts(t.Shape...)
}

// valueFromTensor lifts small integer initializers into a tracked
// ValueInfo so constants can drive shape computations (e.g. a Reshape
// target held in an initializer).
func valueFromTensor(t *tensor.Tensor) lattice.ValueInfo {
	const maxTracked = 64
	if t == nil || t.Len() > maxTracked {
		return lattice.UndefValue()
	}
	switch t.DType {
	case tensor.Int64:
		return lattice.IntsValue(t.I...)
	case tensor.Bool:
		vals := make([]int64, len(t.B))
		for i, b := range t.B {
			if b {
				vals[i] = 1
			}
		}
		return lattice.IntsValue(vals...)
	case tensor.Float32:
		// Track float constants only if they are integral (covers scale
		// factors like 2.0 used by Resize/Upsample).
		vals := make([]int64, len(t.F))
		for i, f := range t.F {
			if f != float32(int64(f)) {
				return lattice.UndefValue()
			}
			vals[i] = int64(f)
		}
		return lattice.IntsValue(vals...)
	default:
		return lattice.UndefValue()
	}
}

// InfoForInitializer builds the full lattice info of a constant tensor.
func InfoForInitializer(t *tensor.Tensor) lattice.Info {
	return lattice.Info{Shape: shapeFromTensor(t), Value: valueFromTensor(t)}
}

// normalizeAxis maps a possibly-negative axis into [0, rank).
func normalizeAxis(axis int64, rank int) int64 {
	if axis < 0 {
		axis += int64(rank)
	}
	return axis
}

// reduceDims computes the output dims of a reduction over axes.
func reduceDims(in []lattice.Dim, axes []int64, keepDims bool) []lattice.Dim {
	drop := make(map[int64]bool, len(axes))
	if len(axes) == 0 {
		for i := range in {
			drop[int64(i)] = true
		}
	}
	for _, a := range axes {
		drop[normalizeAxis(a, len(in))] = true
	}
	var out []lattice.Dim
	for i, d := range in {
		if drop[int64(i)] {
			if keepDims {
				out = append(out, lattice.FromInt(1))
			}
			continue
		}
		out = append(out, d)
	}
	return out
}

// convSpatialOut computes one spatial output dim of Conv/Pool:
// floor((in + padA + padB - ((k-1)*dil + 1)) / stride) + 1.
func convSpatialOut(in lattice.Dim, k, stride, dil, padA, padB int64) lattice.Dim {
	if !in.IsExpr() {
		return lattice.Dim{Kind: in.Kind}
	}
	eff := (k-1)*dil + 1
	num := symbolic.Add(in.E, symbolic.NewConst(padA+padB-eff))
	return lattice.FromExpr(symbolic.Add(symbolic.Div(num, symbolic.NewConst(stride)), symbolic.One))
}

// convSpatialIn inverts convSpatialOut for backward transfer assuming the
// division was exact: in = (out-1)*stride + eff - padA - padB.
func convSpatialIn(out lattice.Dim, k, stride, dil, padA, padB int64) lattice.Dim {
	if !out.IsExpr() {
		return lattice.Dim{Kind: out.Kind}
	}
	eff := (k-1)*dil + 1
	return lattice.FromExpr(symbolic.Add(
		symbolic.Mul(symbolic.Sub(out.E, symbolic.One), symbolic.NewConst(stride)),
		symbolic.NewConst(eff-padA-padB)))
}

// prodOfDims multiplies dims symbolically; NAC/undef dominate.
func prodOfDims(dims []lattice.Dim) lattice.Dim {
	acc := symbolic.Expr(symbolic.One)
	for _, d := range dims {
		if !d.IsExpr() {
			return lattice.Dim{Kind: d.Kind}
		}
		acc = symbolic.Mul(acc, d.E)
	}
	return lattice.FromExpr(acc)
}
