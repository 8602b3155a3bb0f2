// Package kernels implements real CPU reference kernels for every
// operator in the registry. The executor runs them to produce actual
// tensor values, and testing.B benchmarks measure their wall-clock
// behaviour. There is one kernel per operator: MatMul, Gemm and Conv
// (through im2col) share the single float32 GEMM loop nest in
// matmul.go.
package kernels

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Kernel executes one operator over concrete inputs, returning freshly
// allocated outputs.
type Kernel func(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error)

// BudgetedKernel executes one operator with an intra-op thread budget.
// Implementations must produce bit-identical outputs for every budget
// (stripes are disjoint and per-element arithmetic order is unchanged).
type BudgetedKernel func(n *graph.Node, in []*tensor.Tensor, threads int) ([]*tensor.Tensor, error)

// kernels is the one kernel table: every op type is registered exactly
// once, under the thread-budget signature.
var kernels = map[string]BudgetedKernel{}

// registerThreaded installs a kernel that stripes its work across the
// thread budget; duplicates panic at init time.
func registerThreaded(op string, k BudgetedKernel) {
	if _, dup := kernels[op]; dup {
		panic("kernels: duplicate " + op)
	}
	kernels[op] = k
}

// register installs a kernel that has no use for a thread budget.
func register(op string, k Kernel) {
	registerThreaded(op, func(n *graph.Node, in []*tensor.Tensor, _ int) ([]*tensor.Tensor, error) {
		return k(n, in)
	})
}

// Has reports whether an executable kernel exists for the op type.
func Has(op string) bool {
	_, ok := kernels[op]
	return ok
}

// Run executes the node's kernel on one thread.
func Run(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return RunWithBudget(n, in, 1)
}

// RunWithBudget executes the node's kernel with an intra-op thread
// budget; results are bit-identical for every budget.
func RunWithBudget(n *graph.Node, in []*tensor.Tensor, threads int) ([]*tensor.Tensor, error) {
	k, ok := kernels[n.OpType]
	if !ok {
		return nil, fmt.Errorf("kernels: no kernel for %s", n.OpType)
	}
	out, err := k(n, in, threads)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s(%s): %w", n.OpType, n.Name, err)
	}
	return out, nil
}

// Types lists all op types with kernels, sorted.
func Types() []string {
	out := make([]string, 0, len(kernels))
	for t := range kernels {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func wantInputs(in []*tensor.Tensor, n int, op string) error {
	if len(in) < n {
		return fmt.Errorf("%s: want %d inputs, got %d", op, n, len(in))
	}
	return nil
}
