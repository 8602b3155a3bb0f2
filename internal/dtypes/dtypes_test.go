package dtypes_test

import (
	"testing"

	"repro/internal/dtypes"
	"repro/internal/exec"
	"repro/internal/frameworks"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/tensor"
)

// TestInferMatchesKernels runs the ten models, float32 and int8
// weights, at their smallest and largest size and at gate biases that
// between them take every Switch arm and If body, and holds every
// kernel output's dtype to Infer's entry for its value (a value Infer
// leaves out is float32, as the planner reads the map). Each kernel node
// of the graph and of its branch bodies must run at least once, so no
// arm goes unchecked.
func TestInferMatchesKernels(t *testing.T) {
	for _, b := range models.All() {
		for _, format := range []tensor.DType{tensor.Float32, tensor.Int8} {
			c, err := frameworks.CompileSched(b, frameworks.SchedConfig{Quant: frameworks.QuantConfig{Format: format}})
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, format, err)
			}
			m := dtypes.Infer(c.Graph)
			ran := map[*graph.Node]bool{}
			hooks := &exec.Hooks{PostKernel: func(n *graph.Node, out []*tensor.Tensor) error {
				ran[n] = true
				for i, o := range out {
					if i >= len(n.Outputs) || n.Outputs[i] == "" || o == nil {
						continue
					}
					want, ok := m[n.Outputs[i]]
					if !ok {
						want = tensor.Float32
					}
					if o.DType != want {
						t.Errorf("%s %v: %s(%s) output %s is %v, Infer says %v",
							b.Name, format, n.OpType, n.Name, n.Outputs[i], o.DType, want)
					}
				}
				return nil
			}}
			for _, size := range []int64{b.MinSize, b.MaxSize} {
				for _, gate := range []float32{0.05, 0.5, 0.95} {
					in := b.Inputs(tensor.NewRNG(uint64(size)), size, gate)
					if _, err := exec.Run(c.Graph, in, exec.Options{Order: c.ExecPlan.Order, Hooks: hooks}); err != nil {
						t.Fatalf("%s %v @%d gate %.2f: %v", b.Name, format, size, gate, err)
					}
				}
			}
			for _, n := range kernelNodes(c.Graph) {
				if !ran[n] {
					t.Errorf("%s %v: %s(%s) never ran", b.Name, format, n.OpType, n.Name)
				}
			}
		}
	}
}

// kernelNodes lists the nodes of g and of its If/Loop bodies that run a
// kernel.
func kernelNodes(g *graph.Graph) []*graph.Node {
	if g == nil {
		return nil
	}
	var out []*graph.Node
	for _, n := range g.Nodes {
		switch {
		case n.OpType == "If":
			out = append(out, kernelNodes(n.AttrGraph("then_branch"))...)
			out = append(out, kernelNodes(n.AttrGraph("else_branch"))...)
		case n.OpType == "Loop":
			out = append(out, kernelNodes(n.AttrGraph("body"))...)
		case kernels.Has(n.OpType):
			out = append(out, n)
		}
	}
	return out
}
