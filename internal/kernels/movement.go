package kernels

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func shapeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Shape"); err != nil {
		return nil, err
	}
	out := ctx.Out(0, tensor.Int64, int64(in[0].Rank()))
	copy(out.I, in[0].Shape)
	return []*tensor.Tensor{out}, nil
}

func sizeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Size"); err != nil {
		return nil, err
	}
	out := ctx.Out(0, tensor.Int64)
	out.I[0] = in[0].Len()
	return []*tensor.Tensor{out}, nil
}

func reshapeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "Reshape"); err != nil {
		return nil, err
	}
	x, target := in[0], in[1]
	shape := append([]int64{}, target.I...)
	total := x.Len()
	inferIdx := -1
	prod := int64(1)
	for i, d := range shape {
		switch {
		case d == -1:
			if inferIdx >= 0 {
				return nil, fmt.Errorf("Reshape: multiple -1")
			}
			inferIdx = i
		case d == 0:
			if i >= x.Rank() {
				return nil, fmt.Errorf("Reshape: 0-dim beyond input rank")
			}
			shape[i] = x.Shape[i]
			prod *= shape[i]
		default:
			prod *= d
		}
	}
	if inferIdx >= 0 {
		if prod == 0 || total%prod != 0 {
			return nil, fmt.Errorf("Reshape: cannot infer dim (%d / %d)", total, prod)
		}
		shape[inferIdx] = total / prod
	}
	return copyOut(ctx, "Reshape", x, shape)
}

// copyOut returns x's elements under shape as the node's output: the
// shape-only ops copy, never alias, their input. A packed weight has no
// storage to take from ctx and is cloned.
func copyOut(ctx *Ctx, op string, x *tensor.Tensor, shape []int64) ([]*tensor.Tensor, error) {
	if tensor.NumElems(shape) != x.Len() {
		return nil, fmt.Errorf("%s: %d elements cannot take shape %v", op, x.Len(), shape)
	}
	if x.DType.IsQuantized() {
		return []*tensor.Tensor{x.Clone().Reshaped(shape)}, nil
	}
	out := ctx.Out(0, x.DType, shape...)
	copySpan(out, 0, x, 0, x.Len())
	return []*tensor.Tensor{out}, nil
}

func flattenKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Flatten"); err != nil {
		return nil, err
	}
	x := in[0]
	axis, err := axisAttr(n, 1, x.Rank(), true)
	if err != nil {
		return nil, err
	}
	a := tensor.NumElems(x.Shape[:axis])
	b := tensor.NumElems(x.Shape[axis:])
	return copyOut(ctx, "Flatten", x, []int64{a, b})
}

func squeezeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Squeeze"); err != nil {
		return nil, err
	}
	x := in[0]
	axes := n.AttrInts("axes", nil)
	if len(in) > 1 && in[1] != nil {
		axes = in[1].I
	}
	drop := map[int64]bool{}
	if len(axes) == 0 {
		for i, d := range x.Shape {
			if d == 1 {
				drop[int64(i)] = true
			}
		}
	}
	for _, a := range axes {
		if a < 0 {
			a += int64(x.Rank())
		}
		drop[a] = true
	}
	var shape []int64
	for i, d := range x.Shape {
		if !drop[int64(i)] {
			shape = append(shape, d)
		}
	}
	return copyOut(ctx, "Squeeze", x, shape)
}

func unsqueezeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Unsqueeze"); err != nil {
		return nil, err
	}
	x := in[0]
	axes := n.AttrInts("axes", nil)
	if len(in) > 1 && in[1] != nil {
		axes = in[1].I
	}
	ins, err := unsqueezeAxes(n, axes, x.Rank())
	if err != nil {
		return nil, err
	}
	shape := make([]int64, 0, len(ins))
	j := 0
	for _, one := range ins {
		if one {
			shape = append(shape, 1)
		} else {
			shape = append(shape, x.Shape[j])
			j++
		}
	}
	return copyOut(ctx, "Unsqueeze", x, shape)
}

// AttrError reports an attribute whose values do not fit the node's
// input: the op, the node, the attribute and what is wrong with it.
type AttrError struct {
	Op, Node, Attr string
	Detail         string
}

func (e *AttrError) Error() string {
	return fmt.Sprintf("%s %s: %s %s", e.Op, e.Node, e.Attr, e.Detail)
}

// transposePerm is Transpose's one reading of perm, shared by its
// transfers and its kernel: the attribute, or the reversed axes when it
// is absent. A perm that is not a permutation of rank axes — the wrong
// length, an axis out of range, an axis named twice — is an *AttrError,
// never an index into a shape.
func transposePerm(n *graph.Node, rank int) ([]int64, error) {
	perm := n.AttrInts("perm", nil)
	if perm == nil {
		perm = make([]int64, rank)
		for i := range perm {
			perm[i] = int64(rank - 1 - i)
		}
		return perm, nil
	}
	bad := func(format string, args ...any) error {
		return &AttrError{Op: n.OpType, Node: n.Name, Attr: "perm",
			Detail: fmt.Sprintf("%v ", perm) + fmt.Sprintf(format, args...)}
	}
	if len(perm) != rank {
		return nil, bad("has %d axes, the input %d", len(perm), rank)
	}
	for i, p := range perm {
		if p < 0 || p >= int64(rank) {
			return nil, bad("names axis %d, outside rank %d", p, rank)
		}
		if slices.Contains(perm[:i], p) {
			return nil, bad("names axis %d twice", p)
		}
	}
	return perm, nil
}

// axisAttr is the one reading of an op's axis attribute (default def)
// over an input of the given rank, shared by the op's transfers and its
// kernel, for Concat, Gather and Flatten: the axis in [0, rank), or in
// [0, rank] when end is set for an axis that may name the position after
// the last dim. An axis outside [-rank, rank) — [-rank, rank] with end —
// is an *AttrError, never an index into a shape.
func axisAttr(n *graph.Node, def int64, rank int, end bool) (int, error) {
	axis := n.AttrInt("axis", def)
	hi := int64(rank)
	if end {
		hi++
	}
	a := axis
	if a < 0 {
		a += int64(rank)
	}
	if a < 0 || a >= hi {
		return 0, &AttrError{Op: n.OpType, Node: n.Name, Attr: "axis",
			Detail: fmt.Sprintf("%d out of range [%d, %d) for rank %d", axis, -int64(rank), hi, rank)}
	}
	return int(a), nil
}

// unsqueezeAxes is Unsqueeze's one reading of its axes, shared by its
// transfer and its kernel: the positions in the output, of rank
// rank+len(axes), that take a new dim of 1. An axis outside [-r, r) of
// that output rank r, or one named twice, is an *AttrError.
func unsqueezeAxes(n *graph.Node, axes []int64, rank int) ([]bool, error) {
	r := int64(rank + len(axes))
	ins := make([]bool, r)
	for _, axis := range axes {
		a := axis
		if a < 0 {
			a += r
		}
		if a < 0 || a >= r {
			return nil, &AttrError{Op: n.OpType, Node: n.Name, Attr: "axes",
				Detail: fmt.Sprintf("%v: axis %d out of range [%d, %d) for output rank %d", axes, axis, -r, r, r)}
		}
		if ins[a] {
			return nil, &AttrError{Op: n.OpType, Node: n.Name, Attr: "axes",
				Detail: fmt.Sprintf("%v names axis %d twice", axes, a)}
		}
		ins[a] = true
	}
	return ins, nil
}

func transposeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Transpose"); err != nil {
		return nil, err
	}
	x := in[0]
	perm, err := transposePerm(n, x.Rank())
	if err != nil {
		return nil, err
	}
	outShape := make([]int64, x.Rank())
	for i, p := range perm {
		outShape[i] = x.Shape[p]
	}
	out := ctx.Out(0, x.DType, outShape...)
	copyWalk(out, x, newWalk(outShape, tensor.Strides(outShape), tensor.PermuteStrides(x.Shape, perm)))
	return []*tensor.Tensor{out}, nil
}

func concatKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Concat"); err != nil {
		return nil, err
	}
	first := in[0]
	axis, err := axisAttr(n, 0, first.Rank(), false)
	if err != nil {
		return nil, err
	}
	outShape := append([]int64{}, first.Shape...)
	var axisTotal int64
	for i, t := range in {
		if t.DType != first.DType || t.Rank() != first.Rank() || !slices.Equal(t.Shape[:axis], first.Shape[:axis]) ||
			!slices.Equal(t.Shape[axis+1:], first.Shape[axis+1:]) {
			return nil, fmt.Errorf("Concat: input %d is %v %v, input 0 %v %v (axis %d)",
				i, t.DType, t.Shape, first.DType, first.Shape, axis)
		}
		axisTotal += t.Shape[axis]
	}
	outShape[axis] = axisTotal
	out := ctx.Out(0, first.DType, outShape...)
	outer := tensor.NumElems(outShape[:axis])
	innerOut := tensor.NumElems(outShape[axis:])
	copied := int64(0)
	for _, t := range in {
		innerT := tensor.NumElems(t.Shape[axis:])
		for o := int64(0); o < outer; o++ {
			copySpan(out, o*innerOut+copied, t, o*innerT, innerT)
		}
		copied += innerT
	}
	return []*tensor.Tensor{out}, nil
}

func splitKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Split"); err != nil {
		return nil, err
	}
	x := in[0]
	axis, err := resolveAxis("Split", n.AttrInt("axis", 0), x.Rank(), false)
	if err != nil {
		return nil, err
	}
	splits := n.AttrInts("split", nil)
	if len(in) > 1 && in[1] != nil {
		splits = in[1].I
	}
	nOut := len(n.Outputs)
	if splits == nil {
		if x.Shape[axis]%int64(nOut) != 0 {
			return nil, fmt.Errorf("Split: %d not divisible by %d", x.Shape[axis], nOut)
		}
		each := x.Shape[axis] / int64(nOut)
		splits = make([]int64, nOut)
		for i := range splits {
			splits[i] = each
		}
	}
	total := int64(0)
	for _, sz := range splits {
		total += sz
	}
	if total != x.Shape[axis] || slices.ContainsFunc(splits, func(sz int64) bool { return sz < 0 }) {
		return nil, fmt.Errorf("Split: splits %v do not partition axis %d of extent %d", splits, axis, x.Shape[axis])
	}
	outer := tensor.NumElems(x.Shape[:axis])
	inner := tensor.NumElems(x.Shape[axis+1:])
	outs := make([]*tensor.Tensor, len(splits))
	offset := int64(0)
	for s, sz := range splits {
		shape := append([]int64{}, x.Shape...)
		shape[axis] = sz
		out := ctx.Out(s, x.DType, shape...)
		for o := int64(0); o < outer; o++ {
			for a := int64(0); a < sz; a++ {
				copySpan(out, (o*sz+a)*inner, x, (o*x.Shape[axis]+offset+a)*inner, inner)
			}
		}
		outs[s] = out
		offset += sz
	}
	return outs, nil
}

// AxisError reports an axis attribute outside the range an op accepts
// for its input's rank.
type AxisError struct {
	Op   string
	Axis int64
	Rank int
}

func (e *AxisError) Error() string {
	return fmt.Sprintf("%s: axis %d out of range for rank %d", e.Op, e.Axis, e.Rank)
}

// resolveAxis maps an axis in [-rank, rank) — [-rank, rank] with end set,
// for an axis that may name the position after the last dim — to its index.
func resolveAxis(op string, axis int64, rank int, end bool) (int64, error) {
	i := axis
	if i < 0 {
		i += int64(rank)
	}
	if i < 0 || i > int64(rank) || i == int64(rank) && !end {
		return 0, &AxisError{Op: op, Axis: axis, Rank: rank}
	}
	return i, nil
}

func gatherKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "Gather"); err != nil {
		return nil, err
	}
	data, indices := in[0], in[1]
	axis, err := axisAttr(n, 0, data.Rank(), false)
	if err != nil {
		return nil, err
	}
	outShape := append([]int64{}, data.Shape[:axis]...)
	outShape = append(outShape, indices.Shape...)
	outShape = append(outShape, data.Shape[axis+1:]...)
	outer := tensor.NumElems(data.Shape[:axis])
	axisLen := data.Shape[axis]
	inner := tensor.NumElems(data.Shape[axis+1:])
	if data.Q != nil {
		// Embedding-table path: the table is quantized one storage row
		// per axis-0 entry, so each lookup dequantizes its row straight
		// into the float32 output — the table is never unpacked whole.
		if axis == 0 && data.Q.Rows == axisLen && data.Q.Cols == inner {
			out := ctx.Out(0, tensor.Float32, outShape...)
			for ii := int64(0); ii < indices.Len(); ii++ {
				idx := indices.I[ii]
				if idx < 0 {
					idx += axisLen
				}
				if idx < 0 || idx >= axisLen {
					return nil, fmt.Errorf("Gather: index %d out of range [0,%d)", idx, axisLen)
				}
				data.Q.DequantRow(idx, out.F[ii*inner:(ii+1)*inner])
			}
			return []*tensor.Tensor{out}, nil
		}
		data = data.Dequantize()
	}
	out := ctx.Out(0, data.DType, outShape...)
	nIdx := indices.Len()
	for o := int64(0); o < outer; o++ {
		for ii := int64(0); ii < nIdx; ii++ {
			idx := indices.I[ii]
			if idx < 0 {
				idx += axisLen
			}
			if idx < 0 || idx >= axisLen {
				return nil, fmt.Errorf("Gather: index %d out of range [0,%d)", idx, axisLen)
			}
			copySpan(out, (o*nIdx+ii)*inner, data, (o*axisLen+idx)*inner, inner)
		}
	}
	return []*tensor.Tensor{out}, nil
}

func sliceKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 3, "Slice"); err != nil {
		return nil, err
	}
	x := in[0]
	starts, ends := in[1].I, in[2].I
	var axes, steps []int64
	if len(in) > 3 && in[3] != nil {
		axes = in[3].I
	}
	if len(in) > 4 && in[4] != nil {
		steps = in[4].I
	}
	if axes == nil {
		axes = make([]int64, len(starts))
		for i := range axes {
			axes[i] = int64(i)
		}
	}
	if len(ends) != len(starts) || len(axes) != len(starts) || (steps != nil && len(steps) != len(starts)) {
		return nil, fmt.Errorf("Slice: %d starts, %d ends, %d axes and %d steps do not pair up",
			len(starts), len(ends), len(axes), len(steps))
	}
	rank := int64(x.Rank())
	start := make([]int64, rank)
	step := make([]int64, rank)
	count := append([]int64{}, x.Shape...)
	for i := range step {
		step[i] = 1
	}
	for i, aRaw := range axes {
		a := aRaw
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			return nil, &AxisError{Op: "Slice", Axis: aRaw, Rank: int(rank)}
		}
		sp := int64(1)
		if steps != nil {
			sp = steps[i]
		}
		if sp == 0 {
			return nil, fmt.Errorf("Slice: zero step on axis %d", aRaw)
		}
		start[a], count[a] = tensor.SliceBounds(starts[i], ends[i], sp, x.Shape[a])
		step[a] = sp
	}
	out := ctx.Out(0, x.DType, count...)
	srcStrides, srcBase := tensor.SliceStrides(x.Shape, start, step)
	w := newWalk(count, tensor.Strides(count), srcStrides)
	w.base[1] = srcBase
	copyWalk(out, x, w)
	return []*tensor.Tensor{out}, nil
}

func expandKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "Expand"); err != nil {
		return nil, err
	}
	x := in[0]
	shape, err := tensor.BroadcastShapes(x.Shape, in[1].I)
	if err != nil {
		return nil, err
	}
	out := ctx.Out(0, x.DType, shape...)
	copyWalk(out, x, newWalk(shape, tensor.Strides(shape), tensor.BroadcastStrides(x.Shape, shape)))
	return []*tensor.Tensor{out}, nil
}

func rangeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 3, "Range"); err != nil {
		return nil, err
	}
	if in[0].DType == tensor.Int64 {
		start, limit, delta := in[0].I[0], in[1].I[0], in[2].I[0]
		if delta == 0 {
			return nil, fmt.Errorf("Range: zero delta")
		}
		cnt := (limit - start + delta - 1) / delta
		if cnt < 0 {
			cnt = 0
		}
		out := ctx.Out(0, tensor.Int64, cnt)
		v := start
		for i := int64(0); i < cnt; i++ {
			out.I[i] = v
			v += delta
		}
		return []*tensor.Tensor{out}, nil
	}
	start, limit, delta := in[0].F[0], in[1].F[0], in[2].F[0]
	cnt := int64(math.Ceil(float64((limit - start) / delta)))
	if cnt < 0 {
		cnt = 0
	}
	out := ctx.Out(0, tensor.Float32, cnt)
	for i := int64(0); i < cnt; i++ {
		out.F[i] = start + float32(i)*delta
	}
	return []*tensor.Tensor{out}, nil
}

func constantOfShapeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "ConstantOfShape"); err != nil {
		return nil, err
	}
	val := float32(n.AttrFloat("value", 0))
	out := ctx.Out(0, tensor.Float32, in[0].I...)
	for i := range out.F {
		out.F[i] = val
	}
	return []*tensor.Tensor{out}, nil
}

func eyeLikeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "EyeLike"); err != nil {
		return nil, err
	}
	x := in[0]
	if x.Rank() != 2 {
		return nil, fmt.Errorf("EyeLike: rank %d", x.Rank())
	}
	out := ctx.Out(0, tensor.Float32, x.Shape...)
	clear(out.F)
	k := n.AttrInt("k", 0)
	for i := int64(0); i < x.Shape[0]; i++ {
		j := i + k
		if j >= 0 && j < x.Shape[1] {
			out.F[i*x.Shape[1]+j] = 1
		}
	}
	return []*tensor.Tensor{out}, nil
}

func padKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Pad"); err != nil {
		return nil, err
	}
	x := in[0]
	pads := n.AttrInts("pads", nil)
	if len(in) > 1 && in[1] != nil {
		pads = in[1].I
	}
	if len(pads) != 2*x.Rank() {
		return nil, fmt.Errorf("Pad: %d pads for rank %d", len(pads), x.Rank())
	}
	var cval float32
	if len(in) > 2 && in[2] != nil && len(in[2].F) > 0 {
		cval = in[2].F[0]
	}
	outShape := make([]int64, x.Rank())
	for i := range outShape {
		outShape[i] = x.Shape[i] + pads[i] + pads[x.Rank()+i]
	}
	out := ctx.Out(0, x.DType, outShape...)
	for i := range out.F {
		out.F[i] = cval
	}
	clear(out.I) // integer and bool tensors pad with zeros
	clear(out.B)
	// Walk the input; it lands in the output's interior, pads[:rank] in
	// from the origin.
	outStrides := tensor.Strides(outShape)
	w := newWalk(x.Shape, outStrides, tensor.Strides(x.Shape))
	w.base[0] = tensor.Offset(outStrides, pads[:x.Rank()])
	copyWalk(out, x, w)
	return []*tensor.Tensor{out}, nil
}

func tileKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "Tile"); err != nil {
		return nil, err
	}
	x := in[0]
	reps := in[1].I
	outShape := make([]int64, x.Rank())
	for i := range outShape {
		outShape[i] = x.Shape[i] * reps[i]
	}
	out := ctx.Out(0, x.DType, outShape...)
	// Split every output dim into (repeat, input extent): the output is
	// row-major over the split shape and the input ignores the repeats.
	split := make([]int64, 0, 2*x.Rank())
	srcStrides := make([]int64, 0, 2*x.Rank())
	for i, s := range tensor.Strides(x.Shape) {
		split = append(split, reps[i], x.Shape[i])
		srcStrides = append(srcStrides, 0, s)
	}
	copyWalk(out, x, newWalk(split, tensor.Strides(split), srcStrides))
	return []*tensor.Tensor{out}, nil
}

// resizeKernel: nearest-neighbour resize driven by scales (input 2) or
// sizes (input 3); NCHW only.
func resizeKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "Resize"); err != nil {
		return nil, err
	}
	x := in[0]
	if x.Rank() != 4 {
		return nil, fmt.Errorf("Resize: rank %d", x.Rank())
	}
	outShape := append([]int64{}, x.Shape...)
	switch {
	case len(in) > 3 && in[3] != nil && in[3].Len() > 0:
		copy(outShape, in[3].I)
	case len(in) > 2 && in[2] != nil && in[2].Len() > 0:
		for i := range outShape {
			outShape[i] = int64(float64(x.Shape[i]) * float64(in[2].F[i]))
		}
	default:
		return nil, fmt.Errorf("Resize: neither scales nor sizes provided")
	}
	out := ctx.Out(0, tensor.Float32, outShape...)
	N, C := outShape[0], outShape[1]
	oh, ow := outShape[2], outShape[3]
	ih, iw := x.Shape[2], x.Shape[3]
	srcCol := make([]int64, ow) // nearest source column of every output column
	for xx := range srcCol {
		srcCol[xx] = int64(xx) * iw / ow
	}
	for b := int64(0); b < N; b++ {
		for c := int64(0); c < C; c++ {
			srcBase := (b*x.Shape[1] + c) * ih * iw
			dstBase := (b*C + c) * oh * ow
			for y := int64(0); y < oh; y++ {
				srcRow := x.F[srcBase+y*ih/oh*iw:][:iw]
				dstRow := out.F[dstBase+y*ow:][:ow]
				for xx, sx := range srcCol {
					dstRow[xx] = srcRow[sx]
				}
			}
		}
	}
	return []*tensor.Tensor{out}, nil
}

func topKKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "TopK"); err != nil {
		return nil, err
	}
	x := in[0]
	k := n.AttrInt("k", -1)
	if len(in) > 1 && in[1] != nil && in[1].Len() > 0 {
		k = in[1].I[0]
	}
	axis := n.AttrInt("axis", -1)
	if axis < 0 {
		axis += int64(x.Rank())
	}
	if int(axis) != x.Rank()-1 {
		return nil, fmt.Errorf("TopK: only last axis supported")
	}
	inner := x.Shape[x.Rank()-1]
	if k < 0 || k > inner {
		return nil, fmt.Errorf("TopK: k=%d of %d", k, inner)
	}
	// The rows are counted from the leading dims, not x.Len()/inner: a
	// zero last extent (k is then 0) yields the empty [..., 0] pair.
	outer := tensor.NumElems(x.Shape[:axis])
	outShape := append([]int64{}, x.Shape...)
	outShape[axis] = k
	vals := ctx.Out(0, tensor.Float32, outShape...)
	idxs := ctx.Out(1, tensor.Int64, outShape...)
	type pair struct {
		v float32
		i int64
	}
	for o := int64(0); o < outer; o++ {
		row := x.F[o*inner : (o+1)*inner]
		ps := make([]pair, inner)
		for i, v := range row {
			ps[i] = pair{v, int64(i)}
		}
		sort.Slice(ps, func(a, b int) bool {
			if ps[a].v != ps[b].v {
				return ps[a].v > ps[b].v
			}
			return ps[a].i < ps[b].i
		})
		for i := int64(0); i < k; i++ {
			vals.F[o*k+i] = ps[i].v
			idxs.I[o*k+i] = ps[i].i
		}
	}
	return []*tensor.Tensor{vals, idxs}, nil
}

func argExtremeKernel(isMax bool) Kernel {
	return func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, n.OpType); err != nil {
			return nil, err
		}
		x := in[0]
		axis := n.AttrInt("axis", 0)
		if axis < 0 {
			axis += int64(x.Rank())
		}
		keep := n.AttrInt("keepdims", 1) != 0
		outer := tensor.NumElems(x.Shape[:axis])
		axisLen := x.Shape[axis]
		inner := tensor.NumElems(x.Shape[axis+1:])
		var outShape []int64
		for i, d := range x.Shape {
			if int64(i) == axis {
				if keep {
					outShape = append(outShape, 1)
				}
				continue
			}
			outShape = append(outShape, d)
		}
		out := ctx.Out(0, tensor.Int64, outShape...)
		for o := int64(0); o < outer; o++ {
			for i := int64(0); i < inner; i++ {
				best := x.F[o*axisLen*inner+i]
				bestIdx := int64(0)
				for a := int64(1); a < axisLen; a++ {
					v := x.F[(o*axisLen+a)*inner+i]
					if (isMax && v > best) || (!isMax && v < best) {
						best, bestIdx = v, a
					}
				}
				out.I[o*inner+i] = bestIdx
			}
		}
		return []*tensor.Tensor{out}, nil
	}
}

func reduceKernel(init float32, acc func(a, v float32) float32, finish func(a float32, n int64) float32) Kernel {
	return func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, n.OpType); err != nil {
			return nil, err
		}
		x := in[0]
		axes := n.AttrInts("axes", nil)
		if len(in) > 1 && in[1] != nil {
			axes = in[1].I
		}
		keep := n.AttrInt("keepdims", 1) != 0
		reduceAll := len(axes) == 0
		isReduced := make([]bool, x.Rank())
		for _, a := range axes {
			if a < 0 {
				a += int64(x.Rank())
			}
			isReduced[a] = true
		}
		if reduceAll {
			for i := range isReduced {
				isReduced[i] = true
			}
		}
		var outShape []int64
		var reducedCount int64 = 1
		for i, d := range x.Shape {
			if isReduced[i] {
				reducedCount *= d
				if keep {
					outShape = append(outShape, 1)
				}
			} else {
				outShape = append(outShape, d)
			}
		}
		out := ctx.Out(0, tensor.Float32, outShape...)
		for i := range out.F {
			out.F[i] = init
		}
		// The output's stride along each input dim: 0 where it is reduced.
		outStridesKept := make([]int64, x.Rank())
		{
			stride := int64(1)
			for i := x.Rank() - 1; i >= 0; i-- {
				if isReduced[i] {
					outStridesKept[i] = 0
				} else {
					outStridesKept[i] = stride
					stride *= x.Shape[i]
				}
			}
		}
		// Input elements are folded in row-major order, so each output's
		// accumulation order is that of the flat input index.
		w := newWalk(x.Shape, outStridesKept, tensor.Strides(x.Shape))
		so := w.inner(0)
		for c := w.seek(0, w.n); c.next(); {
			xs, o := x.F[c.off[1]:][:c.n], c.off[0]
			if so == 0 {
				a := out.F[o]
				for _, v := range xs {
					a = acc(a, v)
				}
				out.F[o] = a
				continue
			}
			for _, v := range xs {
				out.F[o] = acc(out.F[o], v)
				o += so
			}
		}
		if finish != nil {
			for i := range out.F {
				out.F[i] = finish(out.F[i], reducedCount)
			}
		}
		return []*tensor.Tensor{out}, nil
	}
}

func nonZeroKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "NonZero"); err != nil {
		return nil, err
	}
	x := in[0]
	strides := tensor.Strides(x.Shape)
	var hits []int64
	for flat := int64(0); flat < x.Len(); flat++ {
		var nz bool
		switch x.DType {
		case tensor.Float32:
			nz = x.F[flat] != 0
		case tensor.Int64:
			nz = x.I[flat] != 0
		case tensor.Bool:
			nz = x.B[flat]
		}
		if nz {
			hits = append(hits, flat)
		}
	}
	out := ctx.Out(0, tensor.Int64, int64(x.Rank()), int64(len(hits)))
	for c, flat := range hits {
		rem := flat
		for d := 0; d < x.Rank(); d++ {
			out.I[int64(d)*int64(len(hits))+int64(c)] = rem / strides[d]
			rem %= strides[d]
		}
	}
	return []*tensor.Tensor{out}, nil
}

func oneHotKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "OneHot"); err != nil {
		return nil, err
	}
	idx := in[0]
	depth := in[1].I[0]
	onVal, offVal := float32(1), float32(0)
	if len(in) > 2 && in[2] != nil && in[2].Len() == 2 {
		offVal, onVal = in[2].F[0], in[2].F[1]
	}
	outShape := append(append([]int64{}, idx.Shape...), depth)
	out := ctx.Out(0, tensor.Float32, outShape...)
	for i := range out.F {
		out.F[i] = offVal
	}
	for i := int64(0); i < idx.Len(); i++ {
		v := idx.I[i]
		if v < 0 {
			v += depth
		}
		if v >= 0 && v < depth {
			out.F[i*depth+v] = onVal
		}
	}
	return []*tensor.Tensor{out}, nil
}

// nmsKernel is a simplified single-class NonMaxSuppression over
// boxes [1, N, 4] and scores [1, 1, N], returning selected indices
// [num, 3] like ONNX.
func nmsKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "NonMaxSuppression"); err != nil {
		return nil, err
	}
	boxes, scores := in[0], in[1]
	maxOut := int64(1 << 30)
	if len(in) > 2 && in[2] != nil && in[2].Len() > 0 {
		maxOut = in[2].I[0]
	}
	iouThresh := float32(0.5)
	if len(in) > 3 && in[3] != nil && in[3].Len() > 0 {
		iouThresh = in[3].F[0]
	}
	scoreThresh := float32(math.Inf(-1))
	if len(in) > 4 && in[4] != nil && in[4].Len() > 0 {
		scoreThresh = in[4].F[0]
	}
	nBox := boxes.Shape[1]
	order := make([]int64, 0, nBox)
	for i := int64(0); i < nBox; i++ {
		if scores.F[i] >= scoreThresh {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return scores.F[order[a]] > scores.F[order[b]] })
	iou := func(a, b int64) float32 {
		ax1, ay1, ax2, ay2 := boxes.F[a*4], boxes.F[a*4+1], boxes.F[a*4+2], boxes.F[a*4+3]
		bx1, by1, bx2, by2 := boxes.F[b*4], boxes.F[b*4+1], boxes.F[b*4+2], boxes.F[b*4+3]
		ix1, iy1 := maxf(ax1, bx1), maxf(ay1, by1)
		ix2, iy2 := minf(ax2, bx2), minf(ay2, by2)
		iw, ih := maxf(ix2-ix1, 0), maxf(iy2-iy1, 0)
		inter := iw * ih
		areaA := (ax2 - ax1) * (ay2 - ay1)
		areaB := (bx2 - bx1) * (by2 - by1)
		union := areaA + areaB - inter
		if union <= 0 {
			return 0
		}
		return inter / union
	}
	var selected []int64
	for _, cand := range order {
		if int64(len(selected)) >= maxOut {
			break
		}
		ok := true
		for _, s := range selected {
			if iou(cand, s) > iouThresh {
				ok = false
				break
			}
		}
		if ok {
			selected = append(selected, cand)
		}
	}
	out := ctx.Out(0, tensor.Int64, int64(len(selected)), 3)
	clear(out.I)
	for i, s := range selected {
		out.I[i*3+2] = s
	}
	return []*tensor.Tensor{out}, nil
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func init() {
	Register(&Def{Type: "Shape", Class: ISDO, Forward: shapeForward, Kernel: shapeKernel})
	Register(&Def{Type: "Size", Class: ISDO, Forward: sizeForward, Kernel: sizeKernel})
	Register(&Def{Type: "ConstantOfShape", Class: ISDO, Forward: constantOfShapeForward, Kernel: constantOfShapeKernel})
	Register(&Def{Type: "EyeLike", Class: ISDO, Forward: forwardUnary(false), Kernel: eyeLikeKernel})

	Register(&Def{Type: "Reshape", Class: ISVDOS, Forward: reshapeForward, Kernel: reshapeKernel})
	Register(&Def{Type: "Flatten", Class: ISDOS, Forward: flattenForward, Kernel: flattenKernel})
	Register(&Def{Type: "Squeeze", Class: ISVDOS, Forward: squeezeForward, Kernel: squeezeKernel})
	Register(&Def{Type: "Unsqueeze", Class: ISVDOS, Forward: unsqueezeForward, Kernel: unsqueezeKernel})
	Register(&Def{Type: "Transpose", Class: ISDOS, Forward: transposeForward, Backward: transposeBackward, Kernel: transposeKernel})
	Register(&Def{Type: "Concat", Class: ISDOS, Forward: concatForward, Backward: concatBackward, Kernel: concatKernel})
	Register(&Def{Type: "Split", Class: ISVDOS, Forward: splitForward, Kernel: splitKernel})
	Register(&Def{Type: "Gather", Class: ISDOS, Forward: gatherForward, Kernel: gatherKernel})
	Register(&Def{Type: "Slice", Class: ISVDOS, Forward: sliceForward, Kernel: sliceKernel})
	Register(&Def{Type: "Expand", Class: ISVDOS, Forward: expandForward, Kernel: expandKernel})
	Register(&Def{Type: "Range", Class: ISVDOS, Forward: rangeForward, Kernel: rangeKernel})
	Register(&Def{Type: "Resize", Class: ISVDOS, Forward: resizeForward, Kernel: resizeKernel})
	Register(&Def{Type: "Upsample", Class: ISVDOS, Forward: resizeForward, Kernel: resizeKernel})
	Register(&Def{Type: "Pad", Class: ISVDOS, Forward: padForward, Kernel: padKernel})
	Register(&Def{Type: "Tile", Class: ISVDOS, Forward: tileForward, Kernel: tileKernel})
	Register(&Def{Type: "TopK", Class: ISVDOS, Forward: topKForward, Kernel: topKKernel})
	Register(&Def{Type: "OneHot", Class: ISVDOS, Forward: oneHotForward, Kernel: oneHotKernel})
	Register(&Def{Type: "ArgMax", Class: ISDOS, Forward: argReduceForward, Kernel: argExtremeKernel(true)})
	Register(&Def{Type: "ArgMin", Class: ISDOS, Forward: argReduceForward, Kernel: argExtremeKernel(false)})

	// Data-dependent-output ops: truly ⊥ shapes.
	Register(&Def{Type: "NonZero", Class: EDO, Forward: nonZeroForward, Kernel: nonZeroKernel})
	Register(&Def{Type: "NonMaxSuppression", Class: EDO, Forward: nmsForward, Kernel: nmsKernel})

	reduce := func(op string, k Kernel) { Register(&Def{Type: op, Class: ISDOS, Forward: reduceForward, Kernel: k}) }
	reduce("ReduceSum", reduceKernel(0, func(a, v float32) float32 { return a + v }, nil))
	reduce("ReduceMean", reduceKernel(0, func(a, v float32) float32 { return a + v },
		func(a float32, n int64) float32 { return a / float32(n) }))
	reduce("ReduceMax", reduceKernel(float32(math.Inf(-1)), maxf, nil))
	reduce("ReduceMin", reduceKernel(float32(math.Inf(1)), minf, nil))
	reduce("ReduceProd", reduceKernel(1, func(a, v float32) float32 { return a * v }, nil))
	reduce("ReduceL2", reduceKernel(0, func(a, v float32) float32 { return a + v*v },
		func(a float32, n int64) float32 { return float32(math.Sqrt(float64(a))) }))
}
