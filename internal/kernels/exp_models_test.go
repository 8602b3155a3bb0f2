package kernels_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// TestExpBodiesMatchMathOnModels extends TestExpBodiesMatchMath and
// TestPoolMatchesReferenceLoop to every Softmax, LogSoftmax, Sigmoid,
// Silu, Gelu and MaxPool call the ten models make, at the smallest, a
// middle and the largest size: with the vector bodies on (where the CPU
// and the self-checks allow them) and forced off, at thread budgets 1
// and 4, into NaN-filled outputs, each call matches the scalar
// definitions bit for bit.
func TestExpBodiesMatchMathOnModels(t *testing.T) {
	seen := map[string]int{}
	forEachModelCall(t, true, func(n *graph.Node, in []*tensor.Tensor, _ bool) error {
		switch n.OpType {
		case "Softmax", "LogSoftmax", "Sigmoid", "Silu", "Gelu", "MaxPool":
		default:
			return nil
		}
		seen[n.OpType]++
		want := kernels.VecOpDef(n, in[0])
		for _, on := range []bool{true, false} {
			if err := matchExpOp(n, in, on, want); err != nil {
				return err
			}
		}
		return nil
	})
	t.Logf("calls checked: %v", seen)
	for _, op := range []string{"Softmax", "Sigmoid", "Silu", "Gelu", "MaxPool"} {
		if seen[op] == 0 {
			t.Errorf("no %s call was checked", op)
		}
	}
}

// matchExpOp runs n on in with the vector bodies on or off, at thread
// budgets 1 and 4, and compares its output with want bit for bit.
func matchExpOp(n *graph.Node, in []*tensor.Tensor, vector bool, want []float32) error {
	defer kernels.SetVecBodies(vector)()
	for _, threads := range []int{1, 4} {
		out, err := kernels.Run(n, in, &kernels.Ctx{Threads: threads, Dest: kernels.NaNDest{}})
		if err != nil {
			return err
		}
		for i, v := range out[0].F {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				return fmt.Errorf("%s %v vector %v threads %d: element %d of %d (x %v) = %v, want %v",
					n.OpType, in[0].Shape, vector, threads, i, len(want), in[0].F[i], v, want[i])
			}
		}
	}
	return nil
}
