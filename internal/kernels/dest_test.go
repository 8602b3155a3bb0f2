package kernels_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/frameworks"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/tensor"
)

// TestKernelsWriteEveryElement runs every kernel call the ten models
// make — f32 and int8 weights, every Switch path and If body, at the
// smallest and a middle size — twice more at thread budgets 1 and 4:
// once into heap outputs, once into NaN-filled outputs and scratch. The
// two must match bit for bit. Arena slots and kept scratch are reused
// and never cleared, so a kernel that skipped an element of its output
// (relying on tensor.New's zeroing) or read its output or its scratch
// before writing it would leave a NaN here. The GEMM ops (Conv, MatMul,
// Gemm) run with the AVX-512 strip walk on and off.
func TestKernelsWriteEveryElement(t *testing.T) {
	seen := map[string]int{}
	bodyCalls := 0
	forEachModelCall(t, false, func(n *graph.Node, in []*tensor.Tensor, inBody bool) error {
		seen[n.OpType]++
		if inBody {
			bodyCalls++
		}
		modes := []bool{true}
		switch n.OpType {
		case "Conv", "MatMul", "Gemm":
			modes = []bool{true, false}
		}
		for _, wide := range modes {
			if err := writesEveryElement(n, in, wide); err != nil {
				return err
			}
		}
		return nil
	})
	ops := make([]string, 0, len(seen))
	for op := range seen {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	t.Logf("%d op types checked, %d calls inside If bodies: %v", len(ops), bodyCalls, ops)
	if bodyCalls == 0 {
		t.Errorf("no kernel call inside an If body was checked")
	}
}

// writesEveryElement runs n on in into heap outputs and into NaN-filled
// outputs at thread budgets 1 and 4, with the AVX-512 strip walk as
// selected (wide) or off, and compares the two bit for bit.
func writesEveryElement(n *graph.Node, in []*tensor.Tensor, wide bool) error {
	defer kernels.SetTile512(wide)()
	for _, threads := range []int{1, 4} {
		heap, herr := kernels.Run(n, in, &kernels.Ctx{Threads: threads})
		dest, derr := kernels.Run(n, in, &kernels.Ctx{Threads: threads, Dest: kernels.NaNDest{}})
		if (herr == nil) != (derr == nil) {
			return fmt.Errorf("tile512 %v threads %d: heap error %v, NaN-destination error %v", wide, threads, herr, derr)
		}
		if d := kernels.OutputDiff(dest, heap); d != "" {
			return fmt.Errorf("tile512 %v threads %d: NaN destination vs heap: %s", wide, threads, d)
		}
	}
	return nil
}

// forEachModelCall hands check every kernel call the ten models make as
// served — epilogues fused into their MatMul and Conv nodes, f32 and int8 weights, every Switch path and If body (inBody) — at the
// smallest and a middle size, and at the largest too when withMax is
// set.
func forEachModelCall(t *testing.T, withMax bool, check func(n *graph.Node, in []*tensor.Tensor, inBody bool) error) {
	t.Helper()
	for _, b := range models.All() {
		for _, dtype := range []tensor.DType{tensor.Float32, tensor.Int8} {
			c, err := frameworks.CompileServing(b, frameworks.SchedConfig{Quant: frameworks.QuantConfig{Format: dtype}})
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, dtype, err)
			}
			top := map[*graph.Node]bool{}
			for _, n := range c.Graph.Nodes {
				top[n] = true
			}
			hook := func(n *graph.Node, in []*tensor.Tensor) error { return check(n, in, !top[n]) }
			steps := (b.MaxSize - b.MinSize) / b.SizeStep
			sizes := []int64{b.MinSize, b.MinSize + steps/2*b.SizeStep}
			if withMax {
				sizes = append(sizes, b.MaxSize)
			}
			for _, size := range sizes {
				in := b.Inputs(tensor.NewRNG(uint64(size)), size, 0.5)
				_, err := exec.Run(c.Graph, in, exec.Options{Order: c.ExecPlan.Order, ExecuteAllBranches: true,
					Hooks: &exec.Hooks{PreKernel: hook}})
				if err != nil {
					t.Errorf("%s %v @%d: %v", b.Name, dtype, size, err)
				}
			}
		}
	}
}
