// Package fold implements compile-time constant folding: any operator
// whose inputs are all initializers (compile-time constants) is executed
// once during compilation and replaced by its result. The paper counts
// this among the "general static optimizations" every configuration —
// including the No-opt baseline — applies (§5.3). It is also what turns
// ISVDOS operators with constant shape operands into effectively-static
// ones (§3 "Discussion": "with constant propagation, an operator may
// transform from a more dynamic classification to a less dynamic one").
package fold

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Result reports what folding did.
type Result struct {
	// FoldedNodes is the number of operators evaluated at compile time.
	FoldedNodes int
	// NewConstants lists the value names that became initializers.
	NewConstants []string
}

// Fold rewrites g in place: nodes whose inputs are all initializers are
// executed and their outputs registered as initializers; the nodes are
// removed. Runs to a fixed point so constant chains collapse fully.
func Fold(g *graph.Graph) (*Result, error) {
	res := &Result{}
	outputs := map[string]bool{}
	for _, o := range g.Outputs {
		outputs[o] = true
	}
	for {
		changed := false
		var kept []*graph.Node
		for _, n := range g.Nodes {
			// A node folds when its row has a kernel: every kernel is
			// pure, and the control-flow rows, which have none, do not.
			if !kernels.Has(n.OpType) || !allConstInputs(g, n) {
				kept = append(kept, n)
				continue
			}
			inputs := gatherConsts(g, n)
			out, err := kernels.Run(n, inputs, nil)
			if err != nil {
				return nil, fmt.Errorf("fold: %s(%s): %w", n.OpType, n.Name, err)
			}
			for i, name := range n.Outputs {
				if name == "" || i >= len(out) {
					continue
				}
				g.AddInitializer(name, out[i])
				res.NewConstants = append(res.NewConstants, name)
			}
			res.FoldedNodes++
			changed = true
		}
		g.Nodes = kept
		// Re-index producers after structural change.
		g.ResetIndexes()
		if !changed {
			break
		}
	}
	return res, nil
}

func allConstInputs(g *graph.Graph, n *graph.Node) bool {
	if len(n.Inputs) == 0 {
		return false
	}
	for _, in := range n.Inputs {
		if in == "" {
			continue
		}
		if _, ok := g.Initializers[in]; !ok {
			return false
		}
	}
	return true
}

func gatherConsts(g *graph.Graph, n *graph.Node) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(n.Inputs))
	for i, in := range n.Inputs {
		if in != "" {
			out[i] = g.Initializers[in]
		}
	}
	return out
}
