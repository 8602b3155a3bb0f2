package kernels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// shapeForward implements Shape, the canonical ISDO operator: the output
// is a 1-D int64 tensor whose *value* is the input's shape. RDP assigns
// the (possibly symbolic) input dims directly to the output's V-map —
// Alg. 1 lines 16–18.
func shapeForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	switch x.Kind {
	case lattice.ShapeRanked:
		out[0].Shape = lattice.FromInts(int64(len(x.Dims)))
		elems := make([]lattice.Dim, len(x.Dims))
		copy(elems, x.Dims)
		out[0].Value = lattice.ElemsValue(elems...)
	case lattice.ShapeNAC:
		out[0].Shape = lattice.NACShape()
		out[0].Value = lattice.NACValue()
	}
	return out, nil
}

func constantOfShapeForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	v := ctx.InValue(0)
	switch v.Kind {
	case lattice.ValueElems:
		dims := make([]lattice.Dim, len(v.Elems))
		copy(dims, v.Elems)
		out[0].Shape = lattice.Ranked(dims...)
	case lattice.ValueNAC:
		out[0].Shape = lattice.NACShape()
	}
	return out, nil
}

// reshapeForward: ISVDOS — the output shape is the *value* of input 1.
// Supports -1 (inferred) and 0 (copy) entries per ONNX semantics, using
// symbolic division for the inferred dimension.
func reshapeForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	target := ctx.InValue(1)
	data := ctx.InShape(0)
	switch target.Kind {
	case lattice.ValueNAC:
		out[0].Shape = lattice.NACShape()
		return out, nil
	case lattice.ValueUndef:
		return out, nil
	}
	dims := make([]lattice.Dim, len(target.Elems))
	inferIdx := -1
	knownProd := symbolic.Expr(symbolic.One)
	complete := true
	for i, e := range target.Elems {
		if c, ok := e.Const(); ok {
			switch {
			case c == -1:
				if inferIdx >= 0 {
					return out, fmt.Errorf("Reshape %s: multiple -1 dims", ctx.Node.Name)
				}
				inferIdx = i
				continue
			case c == 0:
				if data.Kind == lattice.ShapeRanked && i < len(data.Dims) {
					dims[i] = data.Dims[i]
				} else {
					dims[i] = lattice.Undef()
					complete = false
				}
			default:
				dims[i] = e
			}
		} else if e.IsExpr() {
			dims[i] = e
		} else {
			dims[i] = e // undef or nac element
			complete = false
		}
		if dims[i].IsExpr() {
			knownProd = symbolic.Mul(knownProd, dims[i].E)
		}
	}
	if inferIdx >= 0 {
		total := data.NumElems()
		if total.IsExpr() && complete {
			dims[inferIdx] = lattice.FromExpr(symbolic.Div(total.E, knownProd))
		} else if total.IsNAC() {
			dims[inferIdx] = lattice.NAC()
		} else {
			dims[inferIdx] = lattice.Undef()
		}
	}
	out[0].Shape = lattice.Ranked(dims...)
	// Reshape of a tracked value keeps its elements (flat order).
	if v := ctx.InValue(0); v.Kind == lattice.ValueElems {
		out[0].Value = v
	}
	return out, nil
}

func flattenForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		out[0].Shape = x
		return out, nil
	}
	axis, err := axisAttr(ctx.Node, 1, len(x.Dims), true)
	if err != nil {
		return nil, err
	}
	a := prodOfDims(x.Dims[:axis])
	b := prodOfDims(x.Dims[axis:])
	out[0].Shape = lattice.Ranked(a, b)
	return out, nil
}

func squeezeForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		out[0].Shape = x
		return out, nil
	}
	axes := ctx.Node.AttrInts("axes", nil)
	if len(ctx.Node.Inputs) > 1 {
		if v, ok := ctx.InValue(1).Ints(); ok {
			axes = v
		}
	}
	drop := map[int64]bool{}
	if len(axes) == 0 {
		for i, d := range x.Dims {
			if c, ok := d.Const(); ok && c == 1 {
				drop[int64(i)] = true
			}
		}
	}
	for _, a := range axes {
		drop[normalizeAxis(a, len(x.Dims))] = true
	}
	var dims []lattice.Dim
	for i, d := range x.Dims {
		if !drop[int64(i)] {
			dims = append(dims, d)
		}
	}
	out[0].Shape = lattice.Ranked(dims...)
	out[0].Value = ctx.InValue(0)
	return out, nil
}

func unsqueezeForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		out[0].Shape = x
		return out, nil
	}
	axes := ctx.Node.AttrInts("axes", nil)
	if len(ctx.Node.Inputs) > 1 {
		if v, ok := ctx.InValue(1).Ints(); ok {
			axes = v
		}
	}
	ins, err := unsqueezeAxes(ctx.Node, axes, len(x.Dims))
	if err != nil {
		return nil, err
	}
	dims := make([]lattice.Dim, 0, len(ins))
	j := 0
	for _, one := range ins {
		if one {
			dims = append(dims, lattice.FromInt(1))
		} else {
			dims = append(dims, x.Dims[j])
			j++
		}
	}
	out[0].Shape = lattice.Ranked(dims...)
	out[0].Value = ctx.InValue(0)
	return out, nil
}

func transposeForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		out[0].Shape = x
		return out, nil
	}
	perm, err := transposePerm(ctx.Node, len(x.Dims))
	if err != nil {
		return nil, err
	}
	dims := make([]lattice.Dim, len(x.Dims))
	for i, p := range perm {
		dims[i] = x.Dims[p]
	}
	out[0].Shape = lattice.Ranked(dims...)
	return out, nil
}

func transposeBackward(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	o := ctx.Out[0].Shape
	if o.Kind != lattice.ShapeRanked {
		return in, nil
	}
	perm, err := transposePerm(ctx.Node, len(o.Dims))
	if err != nil {
		return nil, err
	}
	dims := make([]lattice.Dim, len(o.Dims))
	for i, p := range perm {
		dims[p] = o.Dims[i]
	}
	in[0].Shape = lattice.Ranked(dims...)
	return in, nil
}

func concatForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	n := len(ctx.Node.Inputs)
	if n == 0 {
		return out, nil
	}
	// Value tracking: concatenation of tracked integer vectors is the
	// backbone of shape-computation subgraphs.
	allVals := true
	var elems []lattice.Dim
	for i := 0; i < n; i++ {
		v := ctx.InValue(i)
		if v.Kind != lattice.ValueElems {
			allVals = false
			break
		}
		elems = append(elems, v.Elems...)
	}
	if allVals {
		out[0].Value = lattice.ElemsValue(elems...)
	}
	first := ctx.InShape(0)
	if first.Kind != lattice.ShapeRanked {
		out[0].Shape = first
		return out, nil
	}
	rank := len(first.Dims)
	axis, err := axisAttr(ctx.Node, 0, rank, false)
	if err != nil {
		return nil, err
	}
	dims := make([]lattice.Dim, rank)
	copy(dims, first.Dims)
	sum := first.Dims[axis]
	for i := 1; i < n; i++ {
		s := ctx.InShape(i)
		if s.Kind != lattice.ShapeRanked || len(s.Dims) != rank {
			out[0].Shape = lattice.UndefShape()
			if s.IsNAC() {
				out[0].Shape = lattice.NACShape()
			}
			return out, nil
		}
		for d := 0; d < rank; d++ {
			if d == axis {
				continue
			}
			dims[d] = dims[d].Meet(s.Dims[d])
			if dims[d].IsNAC() {
				// Conflicting non-axis dims: fall back to the first
				// input's claim (models are assumed well-formed).
				dims[d] = first.Dims[d]
			}
		}
		if sum.IsExpr() && s.Dims[axis].IsExpr() {
			sum = lattice.FromExpr(symbolic.Add(sum.E, s.Dims[axis].E))
		} else if sum.IsNAC() || s.Dims[axis].IsNAC() {
			sum = lattice.NAC()
		} else {
			sum = lattice.Undef()
		}
	}
	dims[axis] = sum
	out[0].Shape = lattice.Ranked(dims...)
	return out, nil
}

func concatBackward(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	o := ctx.Out[0].Shape
	if o.Kind != lattice.ShapeRanked {
		return in, nil
	}
	rank := len(o.Dims)
	axis, err := axisAttr(ctx.Node, 0, rank, false)
	if err != nil {
		return nil, err
	}
	// Non-axis dims of every input equal the output's. The axis dim of
	// one unknown input is the residual when all others are known.
	var unknownIdx = -1
	residual := o.Dims[axis]
	for i := range ctx.Node.Inputs {
		s := ctx.InShape(i)
		if s.Kind == lattice.ShapeRanked && len(s.Dims) == rank && s.Dims[axis].IsExpr() {
			if residual.IsExpr() {
				residual = lattice.FromExpr(symbolic.Sub(residual.E, s.Dims[axis].E))
			}
		} else if unknownIdx == -1 {
			unknownIdx = i
		} else {
			unknownIdx = -2 // more than one unknown: no residual inference
		}
	}
	for i := range ctx.Node.Inputs {
		s := ctx.InShape(i)
		if s.Kind == lattice.ShapeRanked && s.AllExpr() {
			continue
		}
		dims := make([]lattice.Dim, rank)
		copy(dims, o.Dims)
		if i == unknownIdx && residual.IsExpr() {
			dims[axis] = residual
		} else {
			dims[axis] = lattice.Undef()
			if r, ok := s.Rank(); ok && r == rank && s.Dims[axis].IsExpr() {
				dims[axis] = s.Dims[axis]
			}
		}
		in[i].Shape = lattice.Ranked(dims...)
	}
	return in, nil
}

func splitForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		for i := range out {
			out[i].Shape = x
		}
		return out, nil
	}
	rank := len(x.Dims)
	axis := int(normalizeAxis(ctx.Node.AttrInt("axis", 0), rank))
	splits := ctx.Node.AttrInts("split", nil)
	if len(ctx.Node.Inputs) > 1 {
		if v, ok := ctx.InValue(1).Ints(); ok {
			splits = v
		}
	}
	for i := range out {
		dims := make([]lattice.Dim, rank)
		copy(dims, x.Dims)
		if splits != nil {
			dims[axis] = lattice.FromInt(splits[i])
		} else if x.Dims[axis].IsExpr() {
			dims[axis] = lattice.FromExpr(symbolic.Div(x.Dims[axis].E, symbolic.NewConst(int64(len(out)))))
		} else {
			dims[axis] = lattice.Dim{Kind: x.Dims[axis].Kind}
		}
		out[i].Shape = lattice.Ranked(dims...)
	}
	return out, nil
}

func gatherForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	data := ctx.InShape(0)
	idx := ctx.InShape(1)
	if data.Kind != lattice.ShapeRanked || idx.Kind != lattice.ShapeRanked {
		if data.IsNAC() || idx.IsNAC() {
			out[0].Shape = lattice.NACShape()
		}
		return out, nil
	}
	axis, err := axisAttr(ctx.Node, 0, len(data.Dims), false)
	if err != nil {
		return nil, err
	}
	dims := make([]lattice.Dim, 0, len(data.Dims)-1+len(idx.Dims))
	dims = append(dims, data.Dims[:axis]...)
	dims = append(dims, idx.Dims...)
	dims = append(dims, data.Dims[axis+1:]...)
	out[0].Shape = lattice.Ranked(dims...)
	// Value tracking: gathering constant indices out of a tracked vector
	// (the Shape→Gather idiom selecting one dimension).
	dv := ctx.InValue(0)
	if dv.Kind == lattice.ValueElems && axis == 0 {
		if idxVals, ok := ctx.InValue(1).Ints(); ok {
			elems := make([]lattice.Dim, len(idxVals))
			valid := true
			for i, iv := range idxVals {
				if iv < 0 {
					iv += int64(len(dv.Elems))
				}
				if iv < 0 || iv >= int64(len(dv.Elems)) {
					valid = false
					break
				}
				elems[i] = dv.Elems[iv]
			}
			if valid {
				out[0].Value = lattice.ElemsValue(elems...)
			}
		}
	}
	return out, nil
}

func sliceForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	data := ctx.InShape(0)
	if data.Kind != lattice.ShapeRanked {
		out[0].Shape = data
		return out, nil
	}
	rank := len(data.Dims)
	starts, okS := ctx.InValue(1).Ints()
	ends, okE := ctx.InValue(2).Ints()
	var axes []int64
	if len(ctx.Node.Inputs) > 3 && ctx.Node.Inputs[3] != "" {
		axes, _ = ctx.InValue(3).Ints()
	}
	steps := []int64(nil)
	if len(ctx.Node.Inputs) > 4 && ctx.Node.Inputs[4] != "" {
		steps, _ = ctx.InValue(4).Ints()
	}
	if !okS || !okE {
		// Dynamic slice bounds: ISVDOS degenerates — dims on sliced axes
		// are unknown (nac if bounds proven dynamic).
		dims := make([]lattice.Dim, rank)
		copy(dims, data.Dims)
		bad := lattice.Undef()
		if ctx.InValue(1).IsNAC() || ctx.InValue(2).IsNAC() {
			bad = lattice.NAC()
		}
		if axes == nil {
			for i := range dims {
				dims[i] = bad
			}
		} else {
			for _, aRaw := range axes {
				a, err := sliceAxis(ctx.Node, aRaw, rank)
				if err != nil {
					return nil, err
				}
				dims[a] = bad
			}
		}
		out[0].Shape = lattice.Ranked(dims...)
		return out, nil
	}
	if axes == nil {
		axes = make([]int64, len(starts))
		for i := range axes {
			axes[i] = int64(i)
		}
	}
	if len(ends) != len(starts) || len(axes) != len(starts) || (steps != nil && len(steps) != len(starts)) {
		return nil, fmt.Errorf("Slice %s: %d starts, %d ends, %d axes and %d steps do not pair up",
			ctx.Node.Name, len(starts), len(ends), len(axes), len(steps))
	}
	dims := make([]lattice.Dim, rank)
	copy(dims, data.Dims)
	for i, aRaw := range axes {
		a, err := sliceAxis(ctx.Node, aRaw, rank)
		if err != nil {
			return nil, err
		}
		step := int64(1)
		if steps != nil {
			step = steps[i]
		}
		if step == 0 {
			return nil, fmt.Errorf("Slice %s: zero step on axis %d", ctx.Node.Name, aRaw)
		}
		dims[a] = sliceDim(data.Dims[a], starts[i], ends[i], step)
	}
	out[0].Shape = lattice.Ranked(dims...)
	// Tracked-vector slicing (common on shape vectors).
	if dv := ctx.InValue(0); dv.Kind == lattice.ValueElems && rank == 1 && len(axes) == 1 && axes[0] == 0 &&
		(steps == nil || steps[0] == 1) {
		st, n := tensor.SliceBounds(starts[0], ends[0], 1, int64(len(dv.Elems)))
		out[0].Value = lattice.ElemsValue(dv.Elems[st : st+n]...)
	}
	return out, nil
}

// sliceAxis normalizes a Slice axis, rejecting one outside the rank.
func sliceAxis(n *graph.Node, axis int64, rank int) (int64, error) {
	a := normalizeAxis(axis, rank)
	if a < 0 || a >= int64(rank) {
		return 0, fmt.Errorf("Slice %s: axis %d out of range for rank %d", n.Name, axis, rank)
	}
	return a, nil
}

// sliceDim computes the post-slice extent of one dimension with constant
// bounds over a possibly-symbolic dim. A backward step over a symbolic
// dim leaves the extent undetermined.
func sliceDim(d lattice.Dim, start, end, step int64) lattice.Dim {
	if !d.IsExpr() {
		return lattice.Dim{Kind: d.Kind}
	}
	const intMaxish = int64(1) << 31
	if c, ok := d.Const(); ok {
		_, n := tensor.SliceBounds(start, end, step, c)
		return lattice.FromInt(n)
	}
	if step < 0 {
		return lattice.Undef()
	}
	// Symbolic dim: handle the common patterns.
	e := d.E
	var stE, enE symbolic.Expr
	if start >= 0 {
		stE = symbolic.Min(symbolic.NewConst(start), e)
	} else {
		stE = symbolic.Max(symbolic.Add(e, symbolic.NewConst(start)), symbolic.Zero)
	}
	if end >= intMaxish {
		enE = e
	} else if end >= 0 {
		enE = symbolic.Min(symbolic.NewConst(end), e)
	} else {
		enE = symbolic.Add(e, symbolic.NewConst(end))
	}
	diff := symbolic.Sub(enE, stE)
	if step != 1 {
		diff = symbolic.CeilDiv(diff, symbolic.NewConst(step))
	}
	return lattice.FromExpr(symbolic.Max(diff, symbolic.Zero))
}

func expandForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	target := ctx.InValue(1)
	switch target.Kind {
	case lattice.ValueNAC:
		out[0].Shape = lattice.NACShape()
		return out, nil
	case lattice.ValueUndef:
		return out, nil
	}
	dims := make([]lattice.Dim, len(target.Elems))
	copy(dims, target.Elems)
	out[0].Shape = BroadcastShape(ctx.InShape(0), lattice.Ranked(dims...))
	return out, nil
}

func rangeForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	start, limit, delta := ctx.InValue(0), ctx.InValue(1), ctx.InValue(2)
	if start.IsNAC() || limit.IsNAC() || delta.IsNAC() {
		out[0].Shape = lattice.NACShape()
		return out, nil
	}
	if start.Kind != lattice.ValueElems || limit.Kind != lattice.ValueElems || delta.Kind != lattice.ValueElems ||
		len(start.Elems) != 1 || len(limit.Elems) != 1 || len(delta.Elems) != 1 {
		return out, nil
	}
	s, l, d := start.Elems[0], limit.Elems[0], delta.Elems[0]
	if !s.IsExpr() || !l.IsExpr() || !d.IsExpr() {
		out[0].Shape = lattice.Ranked(lattice.NAC())
		return out, nil
	}
	n := symbolic.Max(symbolic.CeilDiv(symbolic.Sub(l.E, s.E), d.E), symbolic.Zero)
	out[0].Shape = lattice.Ranked(lattice.FromExpr(n))
	return out, nil
}

func resizeForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		out[0].Shape = x
		return out, nil
	}
	// Inputs: X, roi(optional), scales(optional), sizes(optional).
	if len(ctx.Node.Inputs) > 3 && ctx.Node.Inputs[3] != "" {
		sizes := ctx.InValue(3)
		switch sizes.Kind {
		case lattice.ValueElems:
			dims := make([]lattice.Dim, len(sizes.Elems))
			copy(dims, sizes.Elems)
			out[0].Shape = lattice.Ranked(dims...)
		case lattice.ValueNAC:
			out[0].Shape = lattice.NACShape()
		}
		return out, nil
	}
	if len(ctx.Node.Inputs) > 2 && ctx.Node.Inputs[2] != "" {
		scales := ctx.InValue(2)
		switch scales.Kind {
		case lattice.ValueElems:
			if len(scales.Elems) != len(x.Dims) {
				return out, nil
			}
			dims := make([]lattice.Dim, len(x.Dims))
			for i := range dims {
				se := scales.Elems[i]
				if x.Dims[i].IsExpr() && se.IsExpr() {
					dims[i] = lattice.FromExpr(symbolic.Mul(x.Dims[i].E, se.E))
				} else {
					dims[i] = lattice.Undef()
					if x.Dims[i].IsNAC() || se.IsNAC() {
						dims[i] = lattice.NAC()
					}
				}
			}
			out[0].Shape = lattice.Ranked(dims...)
		case lattice.ValueNAC:
			out[0].Shape = lattice.NACShape()
		}
	}
	return out, nil
}

func padForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		out[0].Shape = x
		return out, nil
	}
	pads := ctx.Node.AttrInts("pads", nil)
	if len(ctx.Node.Inputs) > 1 && ctx.Node.Inputs[1] != "" {
		if v, ok := ctx.InValue(1).Ints(); ok {
			pads = v
		} else if ctx.InValue(1).IsNAC() {
			out[0].Shape = lattice.NACShape()
			return out, nil
		} else {
			return out, nil
		}
	}
	if len(pads) != 2*len(x.Dims) {
		return out, nil
	}
	dims := make([]lattice.Dim, len(x.Dims))
	for i, d := range x.Dims {
		if d.IsExpr() {
			dims[i] = lattice.FromExpr(symbolic.Add(d.E, symbolic.NewConst(pads[i]+pads[len(x.Dims)+i])))
		} else {
			dims[i] = d
		}
	}
	out[0].Shape = lattice.Ranked(dims...)
	return out, nil
}

func tileForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	reps := ctx.InValue(1)
	if x.Kind != lattice.ShapeRanked || reps.Kind != lattice.ValueElems || len(reps.Elems) != len(x.Dims) {
		if reps.IsNAC() {
			out[0].Shape = lattice.NACShape()
		}
		return out, nil
	}
	dims := make([]lattice.Dim, len(x.Dims))
	for i, d := range x.Dims {
		r := reps.Elems[i]
		if d.IsExpr() && r.IsExpr() {
			dims[i] = lattice.FromExpr(symbolic.Mul(d.E, r.E))
		} else {
			dims[i] = lattice.NAC()
		}
	}
	out[0].Shape = lattice.Ranked(dims...)
	return out, nil
}

func topKForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		for i := range out {
			out[i].Shape = x
		}
		return out, nil
	}
	rank := len(x.Dims)
	axis := normalizeAxis(ctx.Node.AttrInt("axis", -1), rank)
	kDim := lattice.Undef()
	if len(ctx.Node.Inputs) > 1 {
		kv := ctx.InValue(1)
		if kv.Kind == lattice.ValueElems && len(kv.Elems) == 1 {
			kDim = kv.Elems[0]
		} else if kv.IsNAC() {
			kDim = lattice.NAC()
		}
	} else if k := ctx.Node.AttrInt("k", -1); k >= 0 {
		kDim = lattice.FromInt(k)
	}
	for i := range out {
		dims := make([]lattice.Dim, rank)
		copy(dims, x.Dims)
		dims[axis] = kDim
		out[i].Shape = lattice.Ranked(dims...)
	}
	return out, nil
}

func argReduceForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		out[0].Shape = x
		return out, nil
	}
	axis := ctx.Node.AttrInt("axis", 0)
	keep := ctx.Node.AttrInt("keepdims", 1) != 0
	out[0].Shape = lattice.Ranked(reduceDims(x.Dims, []int64{axis}, keep)...)
	return out, nil
}

func reduceForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	if x.Kind != lattice.ShapeRanked {
		out[0].Shape = x
		return out, nil
	}
	axes := ctx.Node.AttrInts("axes", nil)
	if len(ctx.Node.Inputs) > 1 && ctx.Node.Inputs[1] != "" {
		if v, ok := ctx.InValue(1).Ints(); ok {
			axes = v
		}
	}
	keep := ctx.Node.AttrInt("keepdims", 1) != 0
	out[0].Shape = lattice.Ranked(reduceDims(x.Dims, axes, keep)...)
	return out, nil
}

func oneHotForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	idx := ctx.InShape(0)
	depth := ctx.InValue(1)
	if idx.Kind != lattice.ShapeRanked {
		out[0].Shape = idx
		return out, nil
	}
	depthDim := lattice.Undef()
	if depth.Kind == lattice.ValueElems && len(depth.Elems) == 1 {
		depthDim = depth.Elems[0]
	} else if depth.IsNAC() {
		depthDim = lattice.NAC()
	}
	rank := len(idx.Dims) + 1
	axis := normalizeAxis(ctx.Node.AttrInt("axis", -1), rank)
	dims := make([]lattice.Dim, 0, rank)
	dims = append(dims, idx.Dims[:axis]...)
	dims = append(dims, depthDim)
	dims = append(dims, idx.Dims[axis:]...)
	out[0].Shape = lattice.Ranked(dims...)
	return out, nil
}

func sizeForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	out[0].Shape = lattice.FromInts()
	out[0].Value = lattice.ElemsValue(ctx.InShape(0).NumElems())
	return out, nil
}

func nonZeroForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	if r, ok := ctx.InShape(0).Rank(); ok {
		// Output is [rank, numNonZero]: first dim known, second ⊥.
		out[0].Shape = lattice.Ranked(lattice.FromInt(int64(r)), lattice.NAC())
	} else {
		out[0].Shape = lattice.NACShape()
	}
	out[0].Value = lattice.NACValue()
	return out, nil
}

func nmsForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	out[0].Shape = lattice.Ranked(lattice.NAC(), lattice.FromInt(3))
	out[0].Value = lattice.NACValue()
	return out, nil
}
