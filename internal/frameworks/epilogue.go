package frameworks

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// fuseEpilogues is the serving compile's one graph rewrite: it folds the
// elementwise ops that finish a MatMul or a Conv into that node, which
// its kernel then applies to each output strip while the strip is in L1
// (kernels' epilogue). In g and every If/Loop body, in place:
//
//   - MatMul → Mul(scalar f32 initializer) → Add(f32 initializer [N]) →
//     Relu|Gelu, with any non-empty prefix of the three after MatMul, or
//     the activation alone, becomes MatMul(A, B, bias, scale) with an
//     activation attribute (an absent bias is the empty input name);
//   - Conv → Relu|Gelu becomes Conv with the activation attribute.
//
// Only a value with exactly one consumer that is not a graph output is
// absorbed, so no tensor the graph still reads disappears. The fused node
// keeps its name and takes the chain's last output name, so consumers do
// not change. Each absorbed op rounds in the kernel as it did on its own,
// so the rewritten graph's outputs are bit-identical. It returns the
// number of nodes removed.
func fuseEpilogues(g *graph.Graph) int {
	removed := 0
	for _, n := range g.Nodes {
		for _, a := range n.Attrs {
			if a.Kind == graph.AttrGraph && a.G != nil {
				removed += fuseEpilogues(a.G)
			}
		}
	}
	uses := valueUses(g)
	for _, o := range g.Outputs {
		uses[o]++ // a graph output is read outside g
	}
	consumer := map[string]*graph.Node{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in != "" {
				consumer[in] = n
			}
		}
	}
	// next is the one node that reads v, when nothing else does.
	next := func(v string) *graph.Node {
		if uses[v] != 1 {
			return nil
		}
		return consumer[v]
	}
	absorbed := map[*graph.Node]bool{}
	for _, n := range g.Nodes {
		if absorbed[n] || len(n.Outputs) != 1 || n.AttrString("activation", "") != "" {
			continue
		}
		var chain []*graph.Node
		out := n.Outputs[0]
		take := func(c *graph.Node) {
			chain = append(chain, c)
			out = c.Outputs[0]
		}
		switch {
		case n.OpType == "MatMul" && len(n.Inputs) == 2:
			bias, scale := "", ""
			if c := next(out); c != nil && c.OpType == "Mul" {
				if s := otherOperand(c, out); s != "" && isScalarF32(g.Initializers[s]) {
					scale = s
					take(c)
				}
			}
			if c := next(out); c != nil && c.OpType == "Add" {
				if b := otherOperand(c, out); b != "" && isColumnBias(g.Initializers[b], g.Initializers[n.Inputs[1]]) {
					bias = b
					take(c)
				}
			}
			switch {
			case scale != "":
				n.Inputs = append(n.Inputs, bias, scale)
			case bias != "":
				n.Inputs = append(n.Inputs, bias)
			}
		case n.OpType == "Conv":
		default:
			continue
		}
		if c := next(out); c != nil && (c.OpType == "Relu" || c.OpType == "Gelu") && len(c.Inputs) == 1 && len(c.Outputs) == 1 {
			if n.Attrs == nil {
				n.Attrs = map[string]graph.AttrValue{}
			}
			n.Attrs["activation"] = graph.StringAttr(c.OpType)
			take(c)
		}
		if len(chain) == 0 {
			continue
		}
		n.Outputs = []string{out}
		for _, c := range chain {
			absorbed[c] = true
		}
		removed += len(chain)
	}
	if len(absorbed) > 0 {
		g.Nodes = slices.DeleteFunc(g.Nodes, func(n *graph.Node) bool { return absorbed[n] })
		g.ResetIndexes()
	}
	return removed
}

// valueUses counts, for each value name, the node inputs and body
// outputs that read it in g and in every body nested in it: a body may
// name a value of an enclosing graph.
func valueUses(g *graph.Graph) map[string]int {
	uses := map[string]int{}
	var walk func(gr *graph.Graph, top bool)
	walk = func(gr *graph.Graph, top bool) {
		for _, n := range gr.Nodes {
			for _, in := range n.Inputs {
				if in != "" {
					uses[in]++
				}
			}
			for _, a := range n.Attrs {
				if a.Kind == graph.AttrGraph && a.G != nil {
					walk(a.G, false)
				}
			}
		}
		if !top {
			for _, o := range gr.Outputs {
				uses[o]++
			}
		}
	}
	walk(g, true)
	return uses
}

// otherOperand is the input of the two-input node c that is not v, or ""
// when c does not read v exactly once beside one other value.
func otherOperand(c *graph.Node, v string) string {
	if len(c.Inputs) != 2 || len(c.Outputs) != 1 {
		return ""
	}
	switch v {
	case c.Inputs[0]:
		return c.Inputs[1]
	case c.Inputs[1]:
		return c.Inputs[0]
	}
	return ""
}

// isScalarF32 reports a one-element float32 constant of rank 0 or 1:
// multiplying by it leaves a MatMul's output shape as it is.
func isScalarF32(t *tensor.Tensor) bool {
	return t != nil && t.DType == tensor.Float32 && t.Rank() <= 1 && t.Len() == 1
}

// isColumnBias reports a float32 constant [N] over the columns of the
// constant MatMul weight w [..., K, N]: adding it leaves the MatMul's
// output shape as it is.
func isColumnBias(b, w *tensor.Tensor) bool {
	return b != nil && w != nil && b.DType == tensor.Float32 && b.Rank() == 1 &&
		w.Rank() >= 2 && b.Shape[0] == w.Shape[w.Rank()-1]
}
