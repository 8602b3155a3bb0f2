package kernels_test

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// TestExpBodiesMatchMathOnModels extends TestExpBodiesMatchMath and
// TestPoolMatchesReferenceLoop to every Softmax, LogSoftmax, Sigmoid,
// Silu, Gelu and MaxPool call the ten models make, at the smallest, a
// middle and the largest size, and to every Gelu a MatMul or Conv
// applies in its epilogue: at every width the CPU and the self-checks
// allow (the eight-lane exp bodies, the four-lane ones, and the vector
// bodies forced off), at thread budgets 1 and 4, into NaN-filled
// outputs, each call matches the scalar definitions bit for bit. The
// log names the widths run.
func TestExpBodiesMatchMathOnModels(t *testing.T) {
	seen := map[string]int{}
	widths := kernels.ExpWidths()
	forEachModelCall(t, true, func(n *graph.Node, in []*tensor.Tensor, _ bool) error {
		var want []float32
		switch n.OpType {
		case "Softmax", "LogSoftmax", "Sigmoid", "Silu", "Gelu", "MaxPool":
			seen[n.OpType]++
			want = kernels.VecOpDef(n, in[0])
		case "MatMul", "Conv":
			act := n.AttrString("activation", "")
			if act != "Gelu" {
				return nil
			}
			seen[n.OpType+"/"+act]++
			// The activation's input: the node's output without it.
			bare := *n
			bare.Attrs = maps.Clone(n.Attrs)
			delete(bare.Attrs, "activation")
			pre, err := kernels.Run(&bare, in, nil)
			if err != nil {
				return err
			}
			want = kernels.VecOpDef(&graph.Node{OpType: act}, pre[0])
		default:
			return nil
		}
		for _, w := range widths {
			if err := matchExpOp(n, in, w, want); err != nil {
				return err
			}
		}
		return nil
	})
	t.Logf("calls checked: %v; widths run: %v", seen, widths)
	for _, op := range []string{"Softmax", "Sigmoid", "Silu", "MatMul/Gelu", "MaxPool"} {
		if seen[op] == 0 {
			t.Errorf("no %s call was checked", op)
		}
	}
}

// matchExpOp runs n on in with the vector bodies at width w, at thread
// budgets 1 and 4, and compares its output with want bit for bit.
func matchExpOp(n *graph.Node, in []*tensor.Tensor, w kernels.ExpWidth, want []float32) error {
	defer w.Set()()
	for _, threads := range []int{1, 4} {
		out, err := kernels.Run(n, in, &kernels.Ctx{Threads: threads, Dest: kernels.NaNDest{}})
		if err != nil {
			return err
		}
		for i, v := range out[0].F {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				return fmt.Errorf("%s %v %s threads %d: element %d of %d (x %v) = %v, want %v",
					n.OpType, in[0].Shape, w.Name, threads, i, len(want), in[0].F[i], v, want[i])
			}
		}
	}
	return nil
}
