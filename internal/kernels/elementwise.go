package kernels

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// binaryValueOp applies an integer operation to tracked value elements;
// nil means the op's values are not tracked symbolically.
type binaryValueOp func(a, b symbolic.Expr) symbolic.Expr

// forwardBinary builds the ForwardFn of a broadcasting binary elementwise
// operator. When both operands carry tracked integer values (shape
// arithmetic subgraphs: Shape→Gather→Mul→Concat→Reshape), the output value
// is computed symbolically too — this is what lets RDP resolve data-driven
// Reshape targets statically.
func forwardBinary(vop binaryValueOp) ForwardFn {
	return func(ctx *InferCtx) ([]lattice.Info, error) {
		out := nOutputs(ctx.Node)
		out[0].Shape = BroadcastShape(ctx.InShape(0), ctx.InShape(1))
		if vop != nil {
			av, bv := ctx.InValue(0), ctx.InValue(1)
			out[0].Value = binaryValue(av, bv, vop)
		}
		return out, nil
	}
}

func binaryValue(a, b lattice.ValueInfo, vop binaryValueOp) lattice.ValueInfo {
	if a.Kind != lattice.ValueElems || b.Kind != lattice.ValueElems {
		if a.IsNAC() || b.IsNAC() {
			return lattice.NACValue()
		}
		return lattice.UndefValue()
	}
	n := len(a.Elems)
	if len(b.Elems) > n {
		n = len(b.Elems)
	}
	if len(a.Elems) != n && len(a.Elems) != 1 {
		return lattice.UndefValue()
	}
	if len(b.Elems) != n && len(b.Elems) != 1 {
		return lattice.UndefValue()
	}
	elems := make([]lattice.Dim, n)
	for i := 0; i < n; i++ {
		ae := a.Elems[i%len(a.Elems)]
		be := b.Elems[i%len(b.Elems)]
		if !ae.IsExpr() || !be.IsExpr() {
			elems[i] = lattice.NAC()
			continue
		}
		elems[i] = lattice.FromExpr(vop(ae.E, be.E))
	}
	return lattice.ElemsValue(elems...)
}

// backwardBinary refines the inputs of a broadcasting binary op from a
// known output. Per the paper (§3, backward transfer): an input dim must
// be 1 or equal to the output dim; it is only determined when the other
// operand forces it (other dim == 1 ⇒ this dim == out dim) or when the
// input is a same-rank operand of an op whose output dim is 1 (then the
// input dim is 1 too).
func backwardBinary(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	outShape := ctx.Out[0].Shape
	if outShape.Kind != lattice.ShapeRanked {
		return in, nil
	}
	for which := 0; which < 2 && which < len(ctx.Node.Inputs); which++ {
		this := ctx.InShape(which)
		other := ctx.InShape(1 - which)
		if this.Kind == lattice.ShapeRanked && this.AllExpr() {
			continue // already resolved
		}
		// Rank must not exceed output rank; we can refine only when this
		// input's rank equals the output's (the common residual case).
		rank, ok := this.Rank()
		if !ok || rank != len(outShape.Dims) {
			continue
		}
		dims := make([]lattice.Dim, rank)
		changed := false
		for i := 0; i < rank; i++ {
			cur := this.Dims[i]
			if cur.IsExpr() {
				dims[i] = cur
				continue
			}
			od := outShape.Dims[i]
			if ov, isC := od.Const(); isC && ov == 1 {
				dims[i] = lattice.FromInt(1) // out 1 forces both inputs 1
				changed = true
				continue
			}
			// If the other operand's dim at this position is 1, this
			// input determines the output, so it equals the output.
			if other.Kind == lattice.ShapeRanked && len(other.Dims) == rank {
				if ov, isC := other.Dims[i].Const(); isC && ov == 1 && od.IsExpr() {
					dims[i] = od
					changed = true
					continue
				}
			}
			dims[i] = cur
		}
		if changed {
			in[which].Shape = lattice.Ranked(dims...)
		}
	}
	return in, nil
}

// broadcastWalk pairs the broadcast shape of the operands with a walk
// over it whose operand 0 is the freshly allocated row-major output.
func broadcastWalk(in ...*tensor.Tensor) ([]int64, *walk, error) {
	shape := in[0].Shape
	for _, t := range in[1:] {
		var err error
		if shape, err = tensor.BroadcastShapes(shape, t.Shape); err != nil {
			return nil, nil, err
		}
	}
	var strides [maxOperands][]int64
	strides[0] = tensor.Strides(shape)
	for k, t := range in {
		strides[k+1] = tensor.BroadcastStrides(t.Shape, shape)
	}
	return shape, newWalk(shape, strides[:len(in)+1]...), nil
}

// binary takes out from ctx as the broadcast of x and y and fills it
// with op(x, y), striped across threads, through op's vector
// loops when vec is non-nil (binRuns). pick selects the typed
// payload of a tensor. Each stripe owns a disjoint slice of the output
// and per-element arithmetic does not depend on the stripe, so the
// result is bit-identical for any budget.
func binary[T, U any](op func(a, b T) U, vec *vecBodies[T, U], odt tensor.DType, pickOut func(*tensor.Tensor) []U,
	pickIn func(*tensor.Tensor) []T, x, y *tensor.Tensor, ctx *Ctx, threads int) (*tensor.Tensor, error) {
	shape, w, err := broadcastWalk(x, y)
	if err != nil {
		return nil, err
	}
	out := ctx.Out(0, odt, shape...)
	o, xs, ys := pickOut(out), pickIn(x), pickIn(y)
	ParallelFor(threads, w.n, func(lo, hi int64) {
		c := w.seek(lo, hi)
		binRuns(op, vec, o, xs, ys, &c)
	})
	return out, nil
}

func floats(t *tensor.Tensor) []float32 { return t.F }
func ints(t *tensor.Tensor) []int64     { return t.I }
func bools(t *tensor.Tensor) []bool     { return t.B }

// arith registers a broadcasting arithmetic row. vop carries tracked
// integer values through it symbolically (nil: untracked); the kernel
// supports float32 and int64 operands, the thread budget stripes the
// float path, which runs fvec, the float op's vector loops, where it is
// non-nil.
func arith(name string, vop binaryValueOp, fop func(a, b float32) float32, fvec *vecBodies[float32, float32], iop func(a, b int64) int64) {
	Register(&Def{Type: name, Class: ISDOS, Forward: forwardBinary(vop), Backward: backwardBinary,
		Kernel: func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
			if err := wantInputs(in, 2, name); err != nil {
				return nil, err
			}
			x, y := in[0], in[1]
			// Weight-only quantization can surface a packed operand here
			// (a quantized scale/bias table): the same-shape case runs the
			// fused row-wise dequant loop, anything else unpacks.
			if y.DType.IsQuantized() && x.DType == tensor.Float32 && tensor.SameShape(x.Shape, y.Shape) {
				return []*tensor.Tensor{binQuantRowwise(fop, x, y, ctx)}, nil
			}
			if x.DType.IsQuantized() && y.DType == tensor.Float32 && tensor.SameShape(x.Shape, y.Shape) {
				return []*tensor.Tensor{binQuantRowwise(func(a, b float32) float32 { return fop(b, a) }, y, x, ctx)}, nil
			}
			x, y = dequantIfNeeded(x), dequantIfNeeded(y)
			switch {
			case x.DType == tensor.Float32 && y.DType == tensor.Float32:
				out, err := binary(fop, fvec, tensor.Float32, floats, floats, x, y, ctx, ctx.threads())
				return []*tensor.Tensor{out}, err
			case x.DType == tensor.Int64 && y.DType == tensor.Int64 && iop != nil:
				out, err := binary(iop, nil, tensor.Int64, ints, ints, x, y, ctx, 1)
				return []*tensor.Tensor{out}, err
			default:
				return nil, fmt.Errorf("%s: unsupported dtypes %v,%v", name, x.DType, y.DType)
			}
		}})
}

// compare registers a broadcasting comparison or logic row producing a
// bool tensor from float32 (fop), int64 (iop) or bool (bop) operands;
// a nil op refuses its dtype.
func compare(name string, fop func(a, b float32) bool, iop func(a, b int64) bool, bop func(a, b bool) bool) {
	Register(&Def{Type: name, Class: ISDOS, Forward: forwardBinary(nil), Backward: backwardBinary,
		Kernel: func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
			if err := wantInputs(in, 2, name); err != nil {
				return nil, err
			}
			x, y := in[0], in[1]
			var out *tensor.Tensor
			var err error
			switch {
			case x.DType == tensor.Float32 && y.DType == tensor.Float32 && fop != nil:
				out, err = binary(fop, nil, tensor.Bool, bools, floats, x, y, ctx, 1)
			case x.DType == tensor.Int64 && y.DType == tensor.Int64 && iop != nil:
				out, err = binary(iop, nil, tensor.Bool, bools, ints, x, y, ctx, 1)
			case x.DType == tensor.Bool && y.DType == tensor.Bool && bop != nil:
				out, err = binary(bop, nil, tensor.Bool, bools, bools, x, y, ctx, 1)
			default:
				return nil, fmt.Errorf("%s: unsupported dtypes %v,%v", name, x.DType, y.DType)
			}
			return []*tensor.Tensor{out}, err
		}})
}

// unary registers a shape-preserving elementwise row whose tracked
// value, if any, is dropped.
func unary(name string, k Kernel) {
	Register(&Def{Type: name, Class: ISDOS, Forward: forwardUnary(false), Backward: backwardUnary, Kernel: k})
}

// mapOp is the float kernel applying op to every element; the thread
// budget stripes the element range.
func mapOp(op func(v float32) float32) Kernel { return mapRows(mapF(op)) }

// mapF is the stripe body that maps x onto o through op.
func mapF(op func(v float32) float32) func(o, x []float32) {
	return func(o, x []float32) {
		o = o[:len(x)]
		for i, v := range x {
			o[i] = op(v)
		}
	}
}

// mapRows is the float kernel whose body maps one stripe x of the input
// onto the same stripe o of the output.
func mapRows(body func(o, x []float32)) Kernel {
	return func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, n.OpType); err != nil {
			return nil, err
		}
		x := in[0]
		out := ctx.Out(0, tensor.Float32, x.Shape...)
		ParallelFor(ctx.threads(), x.Len(), func(lo, hi int64) {
			body(out.F[lo:hi], x.F[lo:hi])
		})
		return []*tensor.Tensor{out}, nil
	}
}

func init() {
	// Arithmetic binaries track symbolic integer values.
	arith("Add", func(a, b symbolic.Expr) symbolic.Expr { return symbolic.Add(a, b) },
		func(a, b float32) float32 { return a + b }, addVec, func(a, b int64) int64 { return a + b })
	arith("Sub", symbolic.Sub, func(a, b float32) float32 { return a - b }, nil, func(a, b int64) int64 { return a - b })
	arith("Mul", func(a, b symbolic.Expr) symbolic.Expr { return symbolic.Mul(a, b) },
		func(a, b float32) float32 { return a * b }, mulVec, func(a, b int64) int64 { return a * b })
	arith("Div", symbolic.Div, func(a, b float32) float32 { return a / b }, nil, func(a, b int64) int64 {
		if b == 0 {
			return 0
		}
		q := a / b
		if a%b != 0 && (a < 0) != (b < 0) {
			q--
		}
		return q
	})
	arith("Mod", symbolic.Mod, func(a, b float32) float32 { return float32(math.Mod(float64(a), float64(b))) }, nil, func(a, b int64) int64 {
		if b == 0 {
			return 0
		}
		m := a % b
		if m != 0 && (m < 0) != (b < 0) {
			m += b
		}
		return m
	})
	arith("Pow", nil, func(a, b float32) float32 { return float32(math.Pow(float64(a), float64(b))) }, nil, nil)
	arith("Min", func(a, b symbolic.Expr) symbolic.Expr { return symbolic.Min(a, b) }, func(a, b float32) float32 {
		if a < b {
			return a
		}
		return b
	}, nil, func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	})
	arith("Max", func(a, b symbolic.Expr) symbolic.Expr { return symbolic.Max(a, b) }, func(a, b float32) float32 {
		if a > b {
			return a
		}
		return b
	}, nil, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
	arith("PRelu", nil, func(a, b float32) float32 {
		if a >= 0 {
			return a
		}
		return a * b
	}, nil, nil)

	// Comparisons and logic produce untracked bool tensors.
	compare("Equal", func(a, b float32) bool { return a == b }, func(a, b int64) bool { return a == b }, nil)
	compare("Greater", func(a, b float32) bool { return a > b }, func(a, b int64) bool { return a > b }, nil)
	compare("GreaterOrEqual", func(a, b float32) bool { return a >= b }, func(a, b int64) bool { return a >= b }, nil)
	compare("Less", func(a, b float32) bool { return a < b }, func(a, b int64) bool { return a < b }, nil)
	compare("LessOrEqual", func(a, b float32) bool { return a <= b }, func(a, b int64) bool { return a <= b }, nil)
	compare("And", nil, nil, func(a, b bool) bool { return a && b })
	compare("Or", nil, nil, func(a, b bool) bool { return a || b })
	compare("Xor", nil, nil, func(a, b bool) bool { return a != b })

	// Unary activations / math: shape-preserving, value untracked.
	unary("Relu", mapRows(relu))
	unary("Sigmoid", mapRows(sigmoidRow))
	unary("Gelu", mapRows(geluRow))
	unary("Silu", mapRows(siluRow))
	unary("Tanh", mapOp(func(v float32) float32 { return float32(math.Tanh(float64(v))) }))
	unary("Exp", mapOp(func(v float32) float32 { return float32(math.Exp(float64(v))) }))
	unary("Log", mapOp(func(v float32) float32 { return float32(math.Log(float64(v))) }))
	unary("Sqrt", mapOp(func(v float32) float32 { return float32(math.Sqrt(float64(v))) }))
	unary("Reciprocal", mapOp(func(v float32) float32 { return 1 / v }))
	unary("Abs", mapOp(func(v float32) float32 { return float32(math.Abs(float64(v))) }))
	unary("Floor", mapOp(func(v float32) float32 { return float32(math.Floor(float64(v))) }))
	unary("Ceil", mapOp(func(v float32) float32 { return float32(math.Ceil(float64(v))) }))
	unary("Round", mapOp(func(v float32) float32 { return float32(math.RoundToEven(float64(v))) }))
	unary("Sign", mapOp(func(v float32) float32 {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		default:
			return 0
		}
	}))
	unary("Erf", mapOp(func(v float32) float32 { return float32(math.Erf(float64(v))) }))
	unary("HardSigmoid", mapOp(func(v float32) float32 {
		h := 0.2*v + 0.5
		if h < 0 {
			return 0
		}
		if h > 1 {
			return 1
		}
		return h
	}))
	unary("HardSwish", mapOp(func(v float32) float32 {
		h := (v + 3) / 6
		if h < 0 {
			h = 0
		}
		if h > 1 {
			h = 1
		}
		return v * h
	}))
	unary("Softplus", mapOp(func(v float32) float32 { return float32(math.Log1p(math.Exp(float64(v)))) }))
	unary("Mish", mapOp(func(v float32) float32 {
		return v * float32(math.Tanh(math.Log1p(math.Exp(float64(v)))))
	}))
	unary("Elu", mapOp(func(v float32) float32 {
		if v >= 0 {
			return v
		}
		return float32(math.Exp(float64(v)) - 1)
	}))
	unary("Selu", mapOp(func(v float32) float32 {
		const alpha, scale = 1.6732632, 1.0507010
		if v > 0 {
			return scale * v
		}
		return float32(scale * (alpha*math.Exp(float64(v)) - alpha))
	}))

	unary("LeakyRelu", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, "LeakyRelu"); err != nil {
			return nil, err
		}
		alpha := float32(n.AttrFloat("alpha", 0.01))
		x := in[0]
		out := ctx.Out(0, tensor.Float32, x.Shape...)
		for i, v := range x.F {
			if v >= 0 {
				out.F[i] = v
			} else {
				out.F[i] = alpha * v
			}
		}
		return []*tensor.Tensor{out}, nil
	})

	unary("Clip", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, "Clip"); err != nil {
			return nil, err
		}
		lo := float32(n.AttrFloat("min", math.Inf(-1)))
		hi := float32(n.AttrFloat("max", math.Inf(1)))
		if len(in) > 1 && in[1] != nil && len(in[1].F) == 1 {
			lo = in[1].F[0]
		}
		if len(in) > 2 && in[2] != nil && len(in[2].F) == 1 {
			hi = in[2].F[0]
		}
		x := in[0]
		out := ctx.Out(0, tensor.Float32, x.Shape...)
		for i, v := range x.F {
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			out.F[i] = v
		}
		return []*tensor.Tensor{out}, nil
	})

	unary("Not", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, "Not"); err != nil {
			return nil, err
		}
		x := in[0]
		out := ctx.Out(0, tensor.Bool, x.Shape...)
		for i, v := range x.B {
			out.B[i] = !v
		}
		return []*tensor.Tensor{out}, nil
	})

	unary("IsNaN", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, "IsNaN"); err != nil {
			return nil, err
		}
		x := in[0]
		out := ctx.Out(0, tensor.Bool, x.Shape...)
		for i, v := range x.F {
			out.B[i] = math.IsNaN(float64(v))
		}
		return []*tensor.Tensor{out}, nil
	})

	// Copies: Dropout is the identity at inference; Identity and Cast
	// carry a tracked integer value through unchanged.
	copyKernel := func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, n.OpType); err != nil {
			return nil, err
		}
		return copyOut(ctx, n.OpType, in[0], in[0].Shape)
	}
	unary("Dropout", copyKernel)
	Register(&Def{Type: "Identity", Class: ISDOS, Forward: forwardUnary(true), Backward: backwardUnary, Kernel: copyKernel})
	Register(&Def{Type: "Cast", Class: ISDOS, Forward: forwardUnary(true), Backward: backwardUnary, Kernel: castKernel})
	Register(&Def{Type: "Neg", Class: ISDOS, Forward: negForward, Backward: backwardUnary,
		Kernel: mapOp(func(v float32) float32 { return -v })})
	// Where: elementwise select broadcast over three inputs.
	Register(&Def{Type: "Where", Class: ISDOS, Forward: whereForward, Kernel: whereKernel})
}

// negForward negates a tracked value elementwise.
func negForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	out[0].Shape = ctx.InShape(0)
	if v := ctx.InValue(0); v.Kind == lattice.ValueElems {
		elems := make([]lattice.Dim, len(v.Elems))
		for i, e := range v.Elems {
			if e.IsExpr() {
				elems[i] = lattice.FromExpr(symbolic.Neg(e.E))
			} else {
				elems[i] = e
			}
		}
		out[0].Value = lattice.ElemsValue(elems...)
	}
	return out, nil
}

func whereForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	s := BroadcastShape(ctx.InShape(0), ctx.InShape(1))
	out[0].Shape = BroadcastShape(s, ctx.InShape(2))
	return out, nil
}

func castKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Cast"); err != nil {
		return nil, err
	}
	x := in[0]
	to := n.AttrString("to", "float32")
	out := ctx.Out(0, dtypeFromName(to), x.Shape...)
	for i := int64(0); i < x.Len(); i++ {
		var v float64
		switch x.DType {
		case tensor.Float32:
			v = float64(x.F[i])
		case tensor.Int64:
			v = float64(x.I[i])
		case tensor.Bool:
			if x.B[i] {
				v = 1
			}
		}
		switch out.DType {
		case tensor.Float32:
			out.F[i] = float32(v)
		case tensor.Int64:
			out.I[i] = int64(v)
		case tensor.Bool:
			out.B[i] = v != 0
		}
	}
	return []*tensor.Tensor{out}, nil
}

func whereKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 3, "Where"); err != nil {
		return nil, err
	}
	cond, x, y := in[0], in[1], in[2]
	if cond.DType != tensor.Bool || x.DType != y.DType || x.DType.IsQuantized() {
		return nil, fmt.Errorf("Where: unsupported dtypes %v,%v,%v", cond.DType, x.DType, y.DType)
	}
	shape, w, err := broadcastWalk(cond, x, y)
	if err != nil {
		return nil, err
	}
	out := ctx.Out(0, x.DType, shape...)
	c := w.seek(0, w.n)
	switch x.DType {
	case tensor.Float32:
		whereRuns(out.F, cond.B, x.F, y.F, &c)
	case tensor.Int64:
		whereRuns(out.I, cond.B, x.I, y.I, &c)
	case tensor.Bool:
		whereRuns(out.B, cond.B, x.B, y.B, &c)
	}
	return []*tensor.Tensor{out}, nil
}

func dtypeFromName(s string) tensor.DType {
	switch s {
	case "int64":
		return tensor.Int64
	case "bool":
		return tensor.Bool
	default:
		return tensor.Float32
	}
}
