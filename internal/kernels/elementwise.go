package kernels

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

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

// registerArith registers a kernel supporting float32 and int64 operands;
// the thread budget stripes the float path, which runs fvec, the float
// op's vector loops, where it is non-nil.
func registerArith(name string, fop func(a, b float32) float32, fvec *vecBodies[float32, float32], iop func(a, b int64) int64) {
	arith := func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
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
	}
	register(name, arith)
}

// registerCompare registers a comparison producing a bool tensor.
func registerCompare(name string, fop func(a, b float32) bool, iop func(a, b int64) bool) {
	register(name, func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 2, name); err != nil {
			return nil, err
		}
		x, y := in[0], in[1]
		var out *tensor.Tensor
		var err error
		switch {
		case x.DType == tensor.Float32 && y.DType == tensor.Float32:
			out, err = binary(fop, nil, tensor.Bool, bools, floats, x, y, ctx, 1)
		case x.DType == tensor.Int64 && y.DType == tensor.Int64:
			out, err = binary(iop, nil, tensor.Bool, bools, ints, x, y, ctx, 1)
		default:
			return nil, fmt.Errorf("%s: unsupported dtypes %v,%v", name, x.DType, y.DType)
		}
		return []*tensor.Tensor{out}, err
	})
}

// registerUnaryF registers a float unary map kernel; the thread budget
// stripes the element range.
func registerUnaryF(name string, op func(v float32) float32) {
	registerMapF(name, mapF(op))
}

// mapF is the stripe body that maps x onto o through op.
func mapF(op func(v float32) float32) func(o, x []float32) {
	return func(o, x []float32) {
		o = o[:len(x)]
		for i, v := range x {
			o[i] = op(v)
		}
	}
}

// registerMapF registers a float unary kernel whose body maps one stripe
// x of the input onto the same stripe o of the output.
func registerMapF(name string, body func(o, x []float32)) {
	unary := func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, name); err != nil {
			return nil, err
		}
		x := in[0]
		out := ctx.Out(0, tensor.Float32, x.Shape...)
		ParallelFor(ctx.threads(), x.Len(), func(lo, hi int64) {
			body(out.F[lo:hi], x.F[lo:hi])
		})
		return []*tensor.Tensor{out}, nil
	}
	register(name, unary)
}

func init() {
	registerArith("Add", func(a, b float32) float32 { return a + b }, addVec, func(a, b int64) int64 { return a + b })
	registerArith("Sub", func(a, b float32) float32 { return a - b }, nil, func(a, b int64) int64 { return a - b })
	registerArith("Mul", func(a, b float32) float32 { return a * b }, mulVec, func(a, b int64) int64 { return a * b })
	registerArith("Div", func(a, b float32) float32 { return a / b }, nil, func(a, b int64) int64 {
		if b == 0 {
			return 0
		}
		q := a / b
		if a%b != 0 && (a < 0) != (b < 0) {
			q--
		}
		return q
	})
	registerArith("Mod", func(a, b float32) float32 { return float32(math.Mod(float64(a), float64(b))) }, nil, func(a, b int64) int64 {
		if b == 0 {
			return 0
		}
		m := a % b
		if m != 0 && (m < 0) != (b < 0) {
			m += b
		}
		return m
	})
	registerArith("Pow", func(a, b float32) float32 { return float32(math.Pow(float64(a), float64(b))) }, nil, nil)
	registerArith("Min", func(a, b float32) float32 {
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
	registerArith("Max", func(a, b float32) float32 {
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
	registerArith("PRelu", func(a, b float32) float32 {
		if a >= 0 {
			return a
		}
		return a * b
	}, nil, nil)

	registerCompare("Equal", func(a, b float32) bool { return a == b }, func(a, b int64) bool { return a == b })
	registerCompare("Greater", func(a, b float32) bool { return a > b }, func(a, b int64) bool { return a > b })
	registerCompare("GreaterOrEqual", func(a, b float32) bool { return a >= b }, func(a, b int64) bool { return a >= b })
	registerCompare("Less", func(a, b float32) bool { return a < b }, func(a, b int64) bool { return a < b })
	registerCompare("LessOrEqual", func(a, b float32) bool { return a <= b }, func(a, b int64) bool { return a <= b })

	register("And", boolBinary(func(a, b bool) bool { return a && b }))
	register("Or", boolBinary(func(a, b bool) bool { return a || b }))
	register("Xor", boolBinary(func(a, b bool) bool { return a != b }))

	registerMapF("Relu", relu)
	registerMapF("Sigmoid", sigmoidRow)
	registerUnaryF("Tanh", func(v float32) float32 { return float32(math.Tanh(float64(v))) })
	registerUnaryF("Exp", func(v float32) float32 { return float32(math.Exp(float64(v))) })
	registerUnaryF("Log", func(v float32) float32 { return float32(math.Log(float64(v))) })
	registerUnaryF("Sqrt", func(v float32) float32 { return float32(math.Sqrt(float64(v))) })
	registerUnaryF("Reciprocal", func(v float32) float32 { return 1 / v })
	registerUnaryF("Neg", func(v float32) float32 { return -v })
	registerUnaryF("Abs", func(v float32) float32 { return float32(math.Abs(float64(v))) })
	registerUnaryF("Floor", func(v float32) float32 { return float32(math.Floor(float64(v))) })
	registerUnaryF("Ceil", func(v float32) float32 { return float32(math.Ceil(float64(v))) })
	registerUnaryF("Round", func(v float32) float32 { return float32(math.RoundToEven(float64(v))) })
	registerUnaryF("Sign", func(v float32) float32 {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		default:
			return 0
		}
	})
	registerUnaryF("Erf", func(v float32) float32 { return float32(math.Erf(float64(v))) })
	registerMapF("Gelu", geluRow)
	registerMapF("Silu", siluRow)
	registerUnaryF("HardSigmoid", func(v float32) float32 {
		h := 0.2*v + 0.5
		if h < 0 {
			return 0
		}
		if h > 1 {
			return 1
		}
		return h
	})
	registerUnaryF("HardSwish", func(v float32) float32 {
		h := (v + 3) / 6
		if h < 0 {
			h = 0
		}
		if h > 1 {
			h = 1
		}
		return v * h
	})
	registerUnaryF("Softplus", func(v float32) float32 { return float32(math.Log1p(math.Exp(float64(v)))) })
	registerUnaryF("Mish", func(v float32) float32 {
		return v * float32(math.Tanh(math.Log1p(math.Exp(float64(v)))))
	})
	registerUnaryF("Elu", func(v float32) float32 {
		if v >= 0 {
			return v
		}
		return float32(math.Exp(float64(v)) - 1)
	})
	registerUnaryF("Selu", func(v float32) float32 {
		const alpha, scale = 1.6732632, 1.0507010
		if v > 0 {
			return scale * v
		}
		return float32(scale * (alpha*math.Exp(float64(v)) - alpha))
	})

	register("LeakyRelu", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
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

	register("Clip", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
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

	register("Not", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
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

	register("Identity", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, "Identity"); err != nil {
			return nil, err
		}
		return copyOut(ctx, n.OpType, in[0], in[0].Shape)
	})
	register("Dropout", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, "Dropout"); err != nil {
			return nil, err
		}
		return copyOut(ctx, n.OpType, in[0], in[0].Shape)
	})

	register("Cast", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
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
	})

	register("Where", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
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
	})

	register("IsNaN", func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
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
}

func boolBinary(op func(a, b bool) bool) Kernel {
	return func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 2, n.OpType); err != nil {
			return nil, err
		}
		x, y := in[0], in[1]
		if x.DType != tensor.Bool || y.DType != tensor.Bool {
			return nil, fmt.Errorf("%s: unsupported dtypes %v,%v", n.OpType, x.DType, y.DType)
		}
		out, err := binary(op, nil, tensor.Bool, bools, bools, x, y, ctx, 1)
		return []*tensor.Tensor{out}, err
	}
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
