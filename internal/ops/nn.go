package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// convAttrs extracts kernel/stride/pad/dilation attributes with ONNX
// defaults for a 2-D convolution or pooling node.
type convAttrs struct {
	kernel    []int64
	strides   []int64
	pads      []int64 // [top, left, bottom, right] (begin..., end...)
	dilations []int64
	group     int64
}

func getConvAttrs(n *graph.Node, spatial int, kernelFromAttr bool) convAttrs {
	a := convAttrs{
		kernel:    n.AttrInts("kernel_shape", nil),
		strides:   n.AttrInts("strides", nil),
		pads:      n.AttrInts("pads", nil),
		dilations: n.AttrInts("dilations", nil),
		group:     n.AttrInt("group", 1),
	}
	if a.strides == nil {
		a.strides = make([]int64, spatial)
		for i := range a.strides {
			a.strides[i] = 1
		}
	}
	if a.dilations == nil {
		a.dilations = make([]int64, spatial)
		for i := range a.dilations {
			a.dilations[i] = 1
		}
	}
	if a.pads == nil {
		a.pads = make([]int64, 2*spatial)
	}
	_ = kernelFromAttr
	return a
}

func convForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	w := ctx.InShape(1)
	if x.Kind != lattice.ShapeRanked || w.Kind != lattice.ShapeRanked {
		if x.IsNAC() || w.IsNAC() {
			out[0].Shape = lattice.NACShape()
		}
		return out, nil
	}
	spatial := len(x.Dims) - 2
	if spatial < 1 || len(w.Dims) != len(x.Dims) {
		return out, fmt.Errorf("Conv %s: rank mismatch x=%v w=%v", ctx.Node.Name, x, w)
	}
	a := getConvAttrs(ctx.Node, spatial, false)
	kernel := a.kernel
	if kernel == nil {
		kernel = make([]int64, spatial)
		for i := 0; i < spatial; i++ {
			kv, ok := w.Dims[2+i].Const()
			if !ok {
				return out, nil // kernel extent unknown
			}
			kernel[i] = kv
		}
	}
	dims := make([]lattice.Dim, len(x.Dims))
	dims[0] = x.Dims[0]
	dims[1] = w.Dims[0] // output channels = weight dim 0
	for i := 0; i < spatial; i++ {
		dims[2+i] = convSpatialOut(x.Dims[2+i], kernel[i], a.strides[i], a.dilations[i], a.pads[i], a.pads[spatial+i])
	}
	out[0].Shape = lattice.Ranked(dims...)
	return out, nil
}

func convBackward(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	o := ctx.Out[0].Shape
	w := ctx.InShape(1)
	if o.Kind != lattice.ShapeRanked || w.Kind != lattice.ShapeRanked {
		return in, nil
	}
	spatial := len(o.Dims) - 2
	if spatial < 1 {
		return in, nil
	}
	a := getConvAttrs(ctx.Node, spatial, false)
	kernel := a.kernel
	if kernel == nil {
		kernel = make([]int64, spatial)
		for i := 0; i < spatial; i++ {
			kv, ok := w.Dims[2+i].Const()
			if !ok {
				return in, nil
			}
			kernel[i] = kv
		}
	}
	dims := make([]lattice.Dim, len(o.Dims))
	dims[0] = o.Dims[0]
	dims[1] = lattice.Undef() // input channels come from the weight, dim 1 * group
	if cin, ok := w.Dims[1].Const(); ok {
		dims[1] = lattice.FromInt(cin * a.group)
	}
	exact := true
	for i := 0; i < spatial; i++ {
		if a.strides[i] != 1 {
			exact = false // stride >1 floor-division is not invertible
		}
		dims[2+i] = convSpatialIn(o.Dims[2+i], kernel[i], a.strides[i], a.dilations[i], a.pads[i], a.pads[spatial+i])
	}
	if !exact {
		return in, nil
	}
	in[0].Shape = lattice.Ranked(dims...)
	return in, nil
}

func convCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	if len(in) < 2 || len(out) < 1 {
		return DefaultCost(node, in, out)
	}
	w := in[1]
	o := out[0]
	group := node.AttrInt("group", 1)
	kvol := int64(1)
	for _, k := range w[2:] {
		kvol *= k
	}
	cinPerGroup := w[1]
	outElems := tensor.NumElems(o)
	flops := 2 * outElems * cinPerGroup * kvol
	_ = group
	var bytes int64
	for _, s := range in {
		bytes += tensor.NumElems(s) * 4
	}
	bytes += outElems * 4
	return flops, bytes
}

func poolForward(global bool) ForwardFn {
	return func(ctx *InferCtx) ([]lattice.Info, error) {
		out := nOutputs(ctx.Node)
		x := ctx.InShape(0)
		if x.Kind != lattice.ShapeRanked {
			out[0].Shape = x
			return out, nil
		}
		dims := make([]lattice.Dim, len(x.Dims))
		copy(dims, x.Dims)
		spatial := len(x.Dims) - 2
		if global {
			for i := 0; i < spatial; i++ {
				dims[2+i] = lattice.FromInt(1)
			}
			out[0].Shape = lattice.Ranked(dims...)
			return out, nil
		}
		a := getConvAttrs(ctx.Node, spatial, true)
		if a.kernel == nil {
			return out, fmt.Errorf("%s %s: missing kernel_shape", ctx.Node.OpType, ctx.Node.Name)
		}
		for i := 0; i < spatial; i++ {
			dims[2+i] = convSpatialOut(x.Dims[2+i], a.kernel[i], a.strides[i], a.dilations[i], a.pads[i], a.pads[spatial+i])
		}
		out[0].Shape = lattice.Ranked(dims...)
		return out, nil
	}
}

func poolCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	if len(out) < 1 {
		return DefaultCost(node, in, out)
	}
	kvol := int64(1)
	for _, k := range node.AttrInts("kernel_shape", nil) {
		kvol *= k
	}
	if kvol == 1 && len(in) > 0 && len(in[0]) >= 3 { // global pool
		kvol = tensor.NumElems(in[0][2:])
	}
	outElems := tensor.NumElems(out[0])
	var bytes int64
	for _, s := range in {
		bytes += tensor.NumElems(s) * 4
	}
	bytes += outElems * 4
	return outElems * kvol, bytes
}

func matmulForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	a := ctx.InShape(0)
	b := ctx.InShape(1)
	if a.Kind != lattice.ShapeRanked || b.Kind != lattice.ShapeRanked {
		if a.IsNAC() || b.IsNAC() {
			out[0].Shape = lattice.NACShape()
		}
		return out, nil
	}
	ra, rb := len(a.Dims), len(b.Dims)
	if ra < 1 || rb < 1 {
		return out, fmt.Errorf("MatMul %s: scalar operand", ctx.Node.Name)
	}
	// Promote 1-D operands per ONNX semantics.
	aDims, bDims := a.Dims, b.Dims
	squeezeA, squeezeB := false, false
	if ra == 1 {
		aDims = []lattice.Dim{lattice.FromInt(1), aDims[0]}
		squeezeA = true
	}
	if rb == 1 {
		bDims = []lattice.Dim{bDims[0], lattice.FromInt(1)}
		squeezeB = true
	}
	batchA := aDims[:len(aDims)-2]
	batchB := bDims[:len(bDims)-2]
	batch := BroadcastShape(lattice.Ranked(batchA...), lattice.Ranked(batchB...))
	if batch.Kind != lattice.ShapeRanked {
		out[0].Shape = batch
		return out, nil
	}
	m := aDims[len(aDims)-2]
	n := bDims[len(bDims)-1]
	dims := append([]lattice.Dim{}, batch.Dims...)
	if !squeezeA {
		dims = append(dims, m)
	}
	if !squeezeB {
		dims = append(dims, n)
	}
	out[0].Shape = lattice.Ranked(dims...)
	return out, nil
}

func matmulBackward(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	o := ctx.Out[0].Shape
	a := ctx.InShape(0)
	b := ctx.InShape(1)
	if o.Kind != lattice.ShapeRanked {
		return in, nil
	}
	// Refine A when B is fully known and ranks align: A = batch… × m × k.
	if b.Kind == lattice.ShapeRanked && len(b.Dims) >= 2 && len(o.Dims) >= 2 {
		k := b.Dims[len(b.Dims)-2]
		if ra, ok := a.Rank(); ok && ra == len(o.Dims) && k.IsExpr() {
			dims := make([]lattice.Dim, ra)
			copy(dims, o.Dims[:ra-1])
			dims[ra-1] = k
			in[0].Shape = lattice.Ranked(dims...)
		}
	}
	if a.Kind == lattice.ShapeRanked && len(a.Dims) >= 2 && len(o.Dims) >= 2 {
		k := a.Dims[len(a.Dims)-1]
		if rb, ok := b.Rank(); ok && rb >= 2 && k.IsExpr() {
			dims := make([]lattice.Dim, rb)
			// batch dims align right; n is output's last dim.
			for i := 0; i < rb-2; i++ {
				dims[i] = o.Dims[len(o.Dims)-2-(rb-2)+i]
			}
			dims[rb-2] = k
			dims[rb-1] = o.Dims[len(o.Dims)-1]
			in[1].Shape = lattice.Ranked(dims...)
		}
	}
	return in, nil
}

func matmulCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	if len(in) < 2 || len(out) < 1 {
		return DefaultCost(node, in, out)
	}
	a, o := in[0], out[0]
	k := a[len(a)-1]
	flops := 2 * tensor.NumElems(o) * k
	var bytes int64
	for _, s := range in {
		bytes += tensor.NumElems(s) * 4
	}
	bytes += tensor.NumElems(o) * 4
	return flops, bytes
}

func gemmForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	a := ctx.InShape(0)
	b := ctx.InShape(1)
	if a.Kind != lattice.ShapeRanked || b.Kind != lattice.ShapeRanked || len(a.Dims) != 2 || len(b.Dims) != 2 {
		return out, nil
	}
	transA := ctx.Node.AttrInt("transA", 0) != 0
	transB := ctx.Node.AttrInt("transB", 0) != 0
	m := a.Dims[0]
	if transA {
		m = a.Dims[1]
	}
	n := b.Dims[1]
	if transB {
		n = b.Dims[0]
	}
	out[0].Shape = lattice.Ranked(m, n)
	return out, nil
}

func softmaxForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	out[0].Shape = ctx.InShape(0)
	return out, nil
}

func normForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	out[0].Shape = ctx.InShape(0)
	return out, nil
}

func normCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	if len(out) < 1 {
		return DefaultCost(node, in, out)
	}
	n := tensor.NumElems(out[0])
	var bytes int64
	for _, s := range in {
		bytes += tensor.NumElems(s) * 4
	}
	bytes += n * 4
	return 8 * n, bytes
}

func softmaxCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	if len(out) < 1 {
		return DefaultCost(node, in, out)
	}
	n := tensor.NumElems(out[0])
	return 5 * n, 8 * n
}

func init() {
	Register(&Def{Type: "Conv", Class: ISDOS, Forward: convForward, Backward: convBackward, Cost: convCost})
	Register(&Def{Type: "MaxPool", Class: ISDOS, Forward: poolForward(false), Cost: poolCost})
	Register(&Def{Type: "AveragePool", Class: ISDOS, Forward: poolForward(false), Cost: poolCost})
	Register(&Def{Type: "GlobalAveragePool", Class: ISDOS, Forward: poolForward(true), Cost: poolCost})
	Register(&Def{Type: "GlobalMaxPool", Class: ISDOS, Forward: poolForward(true), Cost: poolCost})
	Register(&Def{Type: "MatMul", Class: ISDOS, Forward: matmulForward, Backward: matmulBackward, Cost: matmulCost})
	Register(&Def{Type: "Gemm", Class: ISDOS, Forward: gemmForward, Cost: matmulCost})
	Register(&Def{Type: "Softmax", Class: ISDOS, Forward: softmaxForward, Backward: backwardUnary, Cost: softmaxCost})
	Register(&Def{Type: "LogSoftmax", Class: ISDOS, Forward: softmaxForward, Backward: backwardUnary, Cost: softmaxCost})
	Register(&Def{Type: "BatchNormalization", Class: ISDOS, Forward: normForward, Backward: backwardUnary, Cost: normCost})
	Register(&Def{Type: "LayerNormalization", Class: ISDOS, Forward: normForward, Backward: backwardUnary, Cost: normCost})
	Register(&Def{Type: "InstanceNormalization", Class: ISDOS, Forward: normForward, Backward: backwardUnary, Cost: normCost})
	// GroupNormalization is listed as ISVDOS in Table 2 (its num_groups
	// interaction), but shape-wise it preserves the input shape.
	Register(&Def{Type: "GroupNormalization", Class: ISVDOS, Forward: normForward, Backward: backwardUnary, Cost: normCost})
}
