package kernels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// epilogue is what a fused MatMul finishes each output element with
// after its sum, in the order the unfused graph ran the ops it absorbed:
// c·scale (a Mul by a scalar), then c + bias[j] (an Add of a vector over
// the last axis), then the activation's row body. Each step is a pass of
// the absorbed op's own loop over a strip row still in L1 and rounds as
// that op did, so the fused node's output is bit-identical to the
// chain's. The zero value does nothing.
type epilogue struct {
	scale  float32
	scaled bool
	// bias holds the columns of the block the epilogue is handed to,
	// from its first one (cols).
	bias []float32
	act  func(o, x []float32)
}

func (e epilogue) none() bool { return !e.scaled && e.bias == nil && e.act == nil }

// cols is the epilogue of the column block that starts at column j.
func (e epilogue) cols(j int64) epilogue {
	if e.bias != nil {
		e.bias = e.bias[j:]
	}
	return e
}

// rows finishes m rows of w columns, ldc apart, from the start of c.
func (e epilogue) rows(c []float32, ldc, m, w int64) {
	if e.none() {
		return
	}
	for r := int64(0); r < m; r++ {
		e.row(c[r*ldc : r*ldc+w])
	}
}

// row finishes one row segment in place.
func (e epilogue) row(seg []float32) {
	if e.scaled {
		scaleRow(seg, e.scale)
	}
	if e.bias != nil {
		addRow(seg, e.bias[:len(seg)])
	}
	if e.act != nil {
		e.act(seg, seg)
	}
}

// addRow adds b[j] to seg[j]: Add's vector-vector loop (addVec.vv, where
// there is one) over the longest multiple of vecWidth elements, the
// scalar add over the rest, one IEEE add per element either way.
func addRow(seg, b []float32) {
	n := 0
	if addVec != nil {
		n = len(seg) &^ (vecWidth - 1)
		addVec.vv(seg[:n], seg[:n], b[:n])
	}
	for j := n; j < len(seg); j++ {
		seg[j] += b[j]
	}
}

// activationRow is the one reading of a fused MatMul's or Conv's
// activation attribute, shared by its transfer and its kernel: the row
// body of the named op, nil when the attribute is absent, and an
// *AttrError for any other name.
func activationRow(n *graph.Node) (func(o, x []float32), error) {
	switch a := n.AttrString("activation", ""); a {
	case "":
		return nil, nil
	case "Relu":
		return relu, nil
	case "Gelu":
		return geluRow, nil
	default:
		return nil, &AttrError{Op: n.OpType, Node: n.Name, Attr: "activation",
			Detail: fmt.Sprintf("%q is not Relu or Gelu", a)}
	}
}

// InputError reports an optional input whose dtype or shape does not
// fit what the node takes there.
type InputError struct {
	Op, Node, Input string
	Detail          string
}

func (e *InputError) Error() string {
	return fmt.Sprintf("%s %s: input %s %s", e.Op, e.Node, e.Input, e.Detail)
}

// matmulEpilogue reads a MatMul's optional epilogue: input 2, a float32
// bias of one value per output column (nn of them); input 3, a float32
// scalar scale; and the activation attribute.
func matmulEpilogue(n *graph.Node, in []*tensor.Tensor, nn int64) (epilogue, error) {
	var e epilogue
	act, err := activationRow(n)
	if err != nil {
		return e, err
	}
	e.act = act
	if len(in) > 2 && in[2] != nil {
		b := in[2]
		if b.DType != tensor.Float32 || b.Rank() != 1 || b.Shape[0] != nn {
			return e, &InputError{Op: n.OpType, Node: n.Name, Input: "bias",
				Detail: fmt.Sprintf("is %v%v, want %d float32 values", b.DType, b.Shape, nn)}
		}
		e.bias = b.F
	}
	if len(in) > 3 && in[3] != nil {
		s := in[3]
		if s.DType != tensor.Float32 || s.Rank() > 1 || s.Len() != 1 {
			return e, &InputError{Op: n.OpType, Node: n.Name, Input: "scale",
				Detail: fmt.Sprintf("is %v%v, want one float32 value", s.DType, s.Shape)}
		}
		e.scale, e.scaled = s.F[0], true
	}
	return e, nil
}
