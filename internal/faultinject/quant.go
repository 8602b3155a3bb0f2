package faultinject

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Quantized-weight corruption: unlike the hook-driven modes, the fault
// lives in the model's packed weight payload itself — quantization block
// scales are overwritten, so every inference dequantizes garbage until
// the guard's accuracy-drift contract catches it and the request falls
// back to the float32 weight tier. The float originals are separate
// tensors, so the corruption never reaches the fallback.

// CorruptAnyQuantScale overwrites every row scale of the first
// quantized initializer in name order (deterministic across runs) and
// returns the tensor it hit. Corrupting all rows guarantees the fault
// reaches the outputs regardless of which rows an input actually
// touches — an embedding table, for instance, only dequantizes the rows
// the request looks up.
func CorruptAnyQuantScale(g *graph.Graph, v float32) (string, error) {
	names := make([]string, 0, len(g.Initializers))
	for name, t := range g.Initializers {
		if t.Q != nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("faultinject: graph has no quantized initializers")
	}
	sort.Strings(names)
	q := g.Initializers[names[0]].Q
	for i := range q.Scales {
		q.Scales[i] = v
	}
	return names[0], nil
}

// CorruptAllQuantScales overwrites every row scale of every quantized
// initializer and returns how many tensors were hit. Zero is the most
// reliable corruption value for drift-contract tests: every packed
// weight dequantizes to 0, so the fault provably reaches the outputs on
// any architecture while keeping them finite — uniform non-zero scales
// can be absorbed by normalization layers, and non-finite values trip
// the finite check before the drift contract is consulted.
func CorruptAllQuantScales(g *graph.Graph, v float32) int {
	n := 0
	for _, t := range g.Initializers {
		if t.Q == nil {
			continue
		}
		for i := range t.Q.Scales {
			t.Q.Scales[i] = v
		}
		n++
	}
	return n
}
