// Wavefront-parallel serving: bit-identical-output suite over all 10
// evaluation models (run it with -race; the wave executor and the
// budgeted kernels must be clean), chaos containment, and the
// BenchmarkParallelExec worker sweep EXPERIMENTS.md records.
package sod2

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/tensor"
)

// TestParallelExecBitIdentical runs every model sequentially and
// wavefront-parallel on the same inputs and requires bit-identical
// outputs — the determinism contract of internal/exec/parallel.go.
func TestParallelExecBitIdentical(t *testing.T) {
	for _, b := range Models() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.Inputs(tensor.NewRNG(11), b.MinSize, 0.5)
			seqOut, seqRep, err := c.InferGuarded(inputs, GuardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if seqRep.Wavefronts != 0 {
				t.Fatalf("sequential run reported %d wavefronts", seqRep.Wavefronts)
			}
			parOut, parRep, err := c.InferGuarded(inputs, GuardOptions{Parallel: true, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if parRep.Wavefronts == 0 {
				t.Fatalf("parallel run fell back to sequential (tier %v, degradations %v)",
					parRep.FallbackTier, parRep.Degradations)
			}
			if parRep.ParallelWorkers != 4 {
				t.Fatalf("ParallelWorkers = %d, want 4", parRep.ParallelWorkers)
			}
			if len(parOut) != len(seqOut) {
				t.Fatalf("outputs: %d parallel vs %d sequential", len(parOut), len(seqOut))
			}
			for name, want := range seqOut {
				got := parOut[name]
				if got == nil {
					t.Fatalf("output %q missing from parallel run", name)
				}
				if len(got.F) != len(want.F) {
					t.Fatalf("output %q: %d floats parallel vs %d sequential", name, len(got.F), len(want.F))
				}
				for i := range want.F {
					if got.F[i] != want.F[i] {
						t.Fatalf("output %q not bit-identical at element %d: %v != %v",
							name, i, got.F[i], want.F[i])
					}
				}
			}
		})
	}
}

// TestParallelChaosPanicContained injects a panic into one wavefront
// worker mid-model: the failure must surface as a typed *guard.OpError
// naming the faulting node, the worker pool must not wedge or leak, and
// the very next parallel request on the same Compiled must succeed.
func TestParallelChaosPanicContained(t *testing.T) {
	b, err := BuildModel("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(tensor.NewRNG(5), b.MinSize, 0.5)

	// Find a node that lives in a wave wider than 1, so the panic fires
	// on a pool worker rather than the inline solo path.
	var victim string
	for _, wave := range c.inner.WavePlan.Waves {
		if len(wave) > 1 {
			victim = wave[0].Name
			break
		}
	}
	if victim == "" {
		t.Fatal("model has no wave wider than 1")
	}
	hooks := &exec.Hooks{PreKernel: func(n *graph.Node, _ []*tensor.Tensor) error {
		if n.Name == victim {
			panic("chaos: injected wavefront worker fault")
		}
		return nil
	}}
	_, _, err = c.InferGuarded(inputs, GuardOptions{Parallel: true, Workers: 4, Hooks: hooks})
	var oe *guard.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("want *guard.OpError, got %T: %v", err, err)
	}
	if oe.Node != victim || !errors.Is(err, guard.ErrPanic) {
		t.Fatalf("panic not attributed to %s: %v", victim, err)
	}

	// The pool must have drained cleanly: the same Compiled serves the
	// next parallel request without hooks.
	out, rep, err := c.InferGuarded(inputs, GuardOptions{Parallel: true, Workers: 4})
	if err != nil {
		t.Fatalf("parallel request after contained panic failed: %v", err)
	}
	if rep.Wavefronts == 0 || len(out) == 0 {
		t.Fatalf("recovery request fell back: wavefronts=%d outputs=%d", rep.Wavefronts, len(out))
	}
}

// BenchmarkParallelExec sweeps the wavefront worker pool over three
// multi-branch models and measures wall time. The cost model's
// sequential-vs-makespan ratio is sod2bench -exp parallel's table (see
// EXPERIMENTS.md).
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
		for _, workers := range []int{1, 2, 4, 8} {
			opts := GuardOptions{}
			if workers > 1 {
				opts = GuardOptions{Parallel: true, Workers: workers}
			}
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := c.InferGuarded(inputs, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
