// Intra-op threads: the bit-identical-output suite over all 10
// evaluation models at a thread budget of 4 (run it with -race; the
// striped kernels must be clean), stripe-panic containment, and the
// BenchmarkParallelExec thread sweep EXPERIMENTS.md records.
package sod2

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/tensor"
)

// TestParallelExecBitIdentical runs every model sequentially and at a
// thread budget of 4 on the same inputs, at its smallest and largest
// size, and requires bit-identical outputs on the same tier. RaNet runs
// with its gate low, so its full-resolution If body — which inherits
// the request's budget — executes.
func TestParallelExecBitIdentical(t *testing.T) {
	for _, b := range Models() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			gate := float32(0.5)
			if b.Name == "RaNet" {
				gate = 0
			}
			for _, size := range []int64{b.MinSize, b.MaxSize} {
				inputs := b.Inputs(tensor.NewRNG(11), size, gate)
				seqOut, seqRep, err := c.InferGuarded(inputs, GuardOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var bodyKernels atomic.Int64
				hooks := &exec.Hooks{PreKernel: func(n *graph.Node, _ []*tensor.Tensor) error {
					if strings.HasPrefix(n.Name, "ranet_full.") {
						bodyKernels.Add(1)
					}
					return nil
				}}
				parOut, parRep, err := c.InferGuarded(inputs, GuardOptions{Threads: 4, Hooks: hooks})
				if err != nil {
					t.Fatal(err)
				}
				if parRep.FallbackTier != seqRep.FallbackTier {
					t.Fatalf("size %d: tier %v at 4 threads, %v sequential", size, parRep.FallbackTier, seqRep.FallbackTier)
				}
				if b.Name == "RaNet" && bodyKernels.Load() == 0 {
					t.Fatalf("size %d: RaNet's escalation body did not run", size)
				}
				if len(parOut) != len(seqOut) {
					t.Fatalf("size %d: outputs: %d threaded vs %d sequential", size, len(parOut), len(seqOut))
				}
				for name, want := range seqOut {
					got := parOut[name]
					if got == nil {
						t.Fatalf("size %d: output %q missing from threaded run", size, name)
					}
					if len(got.F) != len(want.F) {
						t.Fatalf("size %d: output %q: %d floats threaded vs %d sequential", size, name, len(got.F), len(want.F))
					}
					for i := range want.F {
						if got.F[i] != want.F[i] {
							t.Fatalf("size %d: output %q not bit-identical at element %d: %v != %v",
								size, name, i, got.F[i], want.F[i])
						}
					}
				}
			}
		})
	}
}

// TestParallelChaosPanicContained makes one kernel panic inside a stripe
// goroutine mid-model: the hook hands CodeBERT's first Softmax an input
// one element shorter than its shape, so at a budget of 4 the last row
// stripe indexes out of range. The failure must surface as a typed
// *guard.OpError naming that node, and the very next threaded request
// on the same Compiled must succeed.
func TestParallelChaosPanicContained(t *testing.T) {
	b, err := BuildModel("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	// At 128 tokens a Softmax row is 128 wide, so its rows split into
	// several stripes at a budget of 4.
	inputs := b.Inputs(tensor.NewRNG(5), 128, 0.5)

	var victim string
	for _, n := range c.Graph().Nodes {
		if n.OpType == "Softmax" {
			victim = n.Name
			break
		}
	}
	if victim == "" {
		t.Fatal("CodeBERT has no Softmax")
	}
	hooks := &exec.Hooks{PreKernel: func(n *graph.Node, in []*tensor.Tensor) error {
		if n.Name == victim {
			x := in[0]
			in[0] = &tensor.Tensor{DType: x.DType, Shape: x.Shape, F: x.F[: len(x.F)-1 : len(x.F)-1]}
		}
		return nil
	}}
	_, _, err = c.InferGuarded(inputs, GuardOptions{Threads: 4, Hooks: hooks})
	var oe *guard.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("want *guard.OpError, got %T: %v", err, err)
	}
	if oe.Node != victim || !errors.Is(err, guard.ErrPanic) {
		t.Fatalf("panic not attributed to %s: %v", victim, err)
	}

	out, _, err := c.InferGuarded(inputs, GuardOptions{Threads: 4})
	if err != nil {
		t.Fatalf("threaded request after contained panic failed: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("recovery request returned no outputs")
	}
}

// BenchmarkParallelExec sweeps the intra-op thread budget over three
// models and measures wall time per request.
func BenchmarkParallelExec(b *testing.B) {
	for _, name := range []string{"CodeBERT", "ConvNet-AIG", "BlockDrop"} {
		mb, err := BuildModel(name)
		if err != nil {
			b.Fatal(err)
		}
		c, err := Compile(mb)
		if err != nil {
			b.Fatal(err)
		}
		inputs := mb.Inputs(tensor.NewRNG(17), mb.MinSize, 0.5)
		for _, threads := range []int{1, 2, 4} {
			opts := GuardOptions{Threads: threads}
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := c.InferGuarded(inputs, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
