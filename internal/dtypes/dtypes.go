// Package dtypes infers a static element type for every value in a
// graph, making the memory pipeline byte-width-aware: the arena planner
// uses it to keep non-float values out of the placement program (the
// runtime only arena-places float32 tensors), and the SEP live-byte
// accounting uses it to charge 8 bytes for int64 shape tensors and 1
// byte for bool masks instead of a flat 4.
//
// The inference mirrors the output types of the kernels in the one
// operator table (internal/kernels, one row per op type) exactly where
// it assigns a narrow type, and defaults to Float32 everywhere else;
// TestInferMatchesKernels holds it to every kernel call of the ten
// models. Errors in either direction are fail-safe by construction:
// a value typed Float32 that turns out integral simply skips its
// reserved arena slot at runtime, and a value typed narrow that turns
// out float takes the dynamic-allocation path (no slot was planned for
// it), so a mis-inference can shift a tensor between arena and heap but
// can never alias two live buffers.
package dtypes

import (
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Map assigns every value name an element type.
type Map map[string]tensor.DType

// SizeOf returns the per-element byte width the planner should charge
// for a value, defaulting to float32 when the value is untyped.
func (m Map) SizeOf(name string) int64 {
	if dt, ok := m[name]; ok {
		if s := dt.Size(); s > 0 {
			return s
		}
	}
	return 4
}

// IsFloat reports whether the value is (assumed) float32 — the only
// values the runtime arena places.
func (m Map) IsFloat(name string) bool {
	dt, ok := m[name]
	return !ok || dt == tensor.Float32
}

// Infer computes the value→dtype map for a graph, recursing into
// If/Loop bodies so control-flow outputs carry their branch types.
func Infer(g *graph.Graph) Map {
	m := Map{}
	infer(g, m)
	return m
}

func infer(g *graph.Graph, m Map) {
	for _, in := range g.Inputs {
		if _, ok := m[in.Name]; !ok {
			m[in.Name] = in.DType
		}
	}
	for name, t := range g.Initializers {
		if t.DType.IsQuantized() {
			// Packed weights dequantize to float32 inside every consuming
			// kernel (GEMM/CONV/Gather dequant-on-the-fly), so values
			// derived from them are float — and the map stays identical
			// to the float32 compile's, keeping memory proofs portable
			// across storage formats.
			m[name] = tensor.Float32
			continue
		}
		m[name] = t.DType
	}
	order, err := g.TopoSort()
	if err != nil {
		order = g.Nodes
	}
	for _, n := range order {
		inferNode(g, n, m)
	}
}

func inferNode(g *graph.Graph, n *graph.Node, m Map) {
	set := func(dt tensor.DType) {
		for _, o := range n.Outputs {
			if o != "" {
				m[o] = dt
			}
		}
	}
	inDT := func(i int) tensor.DType {
		if i < len(n.Inputs) && n.Inputs[i] != "" {
			if dt, ok := m[n.Inputs[i]]; ok {
				return dt
			}
		}
		return tensor.Float32
	}
	switch n.OpType {
	case "Shape", "Size", "NonZero", "ArgMax", "ArgMin", "Range":
		set(tensor.Int64)
	case "Equal", "Greater", "GreaterOrEqual", "Less", "LessOrEqual",
		"Not", "And", "Or", "Xor", "IsNaN":
		set(tensor.Bool)
	case "Cast":
		switch n.AttrString("to", "float32") {
		case "int64":
			set(tensor.Int64)
		case "bool":
			set(tensor.Bool)
		default:
			set(tensor.Float32)
		}
	case "Where":
		set(inDT(1))
	case "TopK":
		if len(n.Outputs) > 0 && n.Outputs[0] != "" {
			m[n.Outputs[0]] = inDT(0)
		}
		if len(n.Outputs) > 1 && n.Outputs[1] != "" {
			m[n.Outputs[1]] = tensor.Int64
		}
	case "Add", "Sub", "Mul", "Div", "Mod", "Min", "Max":
		if inDT(0) == tensor.Int64 && inDT(1) == tensor.Int64 {
			set(tensor.Int64)
		} else {
			set(tensor.Float32)
		}
	case "If":
		inferBranch(n.AttrGraph("then_branch"), n, 1, 0, m)
		inferBranch(n.AttrGraph("else_branch"), n, 1, 0, m)
	case "Loop":
		inferBranch(n.AttrGraph("body"), n, 2, 1, m)
	case "Switch", "Combine", "Identity", "Reshape", "Transpose", "Squeeze",
		"Unsqueeze", "Slice", "Concat", "Gather", "Expand", "Tile", "Flatten",
		"Split", "Dropout", "Pad":
		// Movement/routing ops preserve their data operand's type.
		set(inDT(0))
	default:
		set(tensor.Float32)
	}
}

// inferBranch types a subgraph body whose inputs bind the node's inputs
// starting at inOff (If skips the condition; Loop additionally gets the
// synthetic iteration counter and condition), then maps the body's
// outputs — from outOff on — onto the node's outputs.
func inferBranch(body *graph.Graph, n *graph.Node, inOff, outOff int, m Map) {
	if body == nil {
		return
	}
	sub := Map{}
	for i, bin := range body.Inputs {
		switch {
		case n.OpType == "Loop" && i == 0:
			sub[bin.Name] = tensor.Int64
		case n.OpType == "Loop" && i == 1:
			sub[bin.Name] = tensor.Bool
		default:
			j := i
			if n.OpType == "If" {
				j = i + inOff
			}
			if j < len(n.Inputs) && n.Inputs[j] != "" {
				if dt, ok := m[n.Inputs[j]]; ok {
					sub[bin.Name] = dt
					continue
				}
			}
			sub[bin.Name] = tensor.Float32
		}
	}
	infer(body, sub)
	for i, name := range n.Outputs {
		if name == "" || i+outOff >= len(body.Outputs) {
			continue
		}
		if dt, ok := sub[body.Outputs[i+outOff]]; ok {
			// An If output typed differently by the two branches keeps
			// the first (then) branch's claim unless widening to float.
			if prev, seen := m[name]; seen && prev != dt {
				m[name] = tensor.Float32
				continue
			}
			m[name] = dt
		}
	}
}
