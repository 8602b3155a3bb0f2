package faultinject

import (
	"math"
	"testing"

	"repro/internal/frameworks"
	"repro/internal/guard"
	"repro/internal/models"
	"repro/internal/tensor"
)

// compileQuant compiles a model with int8 weights and fails the test if
// the pass packed nothing (no injection surface).
func compileQuant(t *testing.T, name string) (*models.Builder, *frameworks.Compiled) {
	t.Helper()
	b, ok := models.Get(name)
	if !ok {
		t.Fatalf("model %q not registered", name)
	}
	c, err := frameworks.CompileSched(b, frameworks.SchedConfig{
		Quant: frameworks.QuantConfig{Format: tensor.Int8},
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if c.Quant == nil || c.Quant.Tensors == 0 {
		t.Fatalf("quantization packed nothing: %+v", c.Quant)
	}
	return b, c
}

// TestQuantDriftContractClean pins the baseline: an uncorrupted int8
// compile passes its accuracy-drift contract with the verification
// re-run enabled and serves on the planned tier.
func TestQuantDriftContractClean(t *testing.T) {
	b, c := compileQuant(t, "CodeBERT")
	inputs := b.Inputs(tensor.NewRNG(7), b.MinSize, 0.5)
	res, gr, err := c.GuardedRun(inputs, frameworks.GuardOptions{VerifyDrift: true})
	if err != nil {
		t.Fatalf("clean quantized run failed: %v", err)
	}
	if gr.Tier != guard.TierPlanned || len(gr.Degradations) != 0 {
		t.Fatalf("clean run degraded: tier=%v %v", gr.Tier, gr.Degradations)
	}
	if len(res.Outputs) == 0 {
		t.Fatal("no outputs")
	}
}

// TestQuantCorruptedScaleFallsBackToFloat32 is the accuracy-drift
// contract test: a corrupted row scale in the packed weights must
// surface as a typed KindQuant degradation to the float32 weight tier —
// with outputs matching the float32 reference — never as a silent wrong
// answer and never as a panic.
func TestQuantCorruptedScaleFallsBackToFloat32(t *testing.T) {
	b, c := compileQuant(t, "CodeBERT")
	inputs := b.Inputs(tensor.NewRNG(7), b.MinSize, 0.5)

	// Float32 reference from an unquantized compile of the same model.
	fc, err := frameworks.Compile(b)
	if err != nil {
		t.Fatalf("f32 compile: %v", err)
	}
	refOut, _, err := fc.GuardedRun(inputs, frameworks.GuardOptions{})
	if err != nil {
		t.Fatalf("f32 reference: %v", err)
	}

	if n := CorruptAllQuantScales(c.Graph, 0); n == 0 {
		t.Fatal("nothing to corrupt")
	}

	res, gr, err := c.GuardedRun(inputs, frameworks.GuardOptions{VerifyDrift: true})
	if err != nil {
		t.Fatalf("corrupted run must degrade, not fail: %v", err)
	}
	if gr.Tier != guard.TierFloat32 {
		t.Fatalf("tier = %v, want float32 fallback (%v)", gr.Tier, gr.Degradations)
	}
	found := false
	for _, d := range gr.Degradations {
		if d.Kind == guard.KindQuant && d.To == guard.TierFloat32 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no typed KindQuant degradation recorded: %v", gr.Degradations)
	}
	// The fallback serves the float32 answer, not the corrupted one.
	for oname, rt := range refOut.Outputs {
		got := res.Outputs[oname]
		if got == nil || got.DType != tensor.Float32 {
			continue
		}
		for i := range rt.F {
			if math.Abs(float64(got.F[i]-rt.F[i])) > 1e-5 {
				t.Fatalf("output %q[%d]: fallback %v, f32 reference %v", oname, i, got.F[i], rt.F[i])
			}
		}
	}
}

// TestQuantNaNScaleCaughtByFiniteCheck covers the other detection path:
// a NaN scale poisons the outputs, the finite check trips, and the run
// still completes on the float32 tier with a KindQuant degradation —
// without VerifyDrift enabled.
func TestQuantNaNScaleCaughtByFiniteCheck(t *testing.T) {
	b, c := compileQuant(t, "CodeBERT")
	inputs := b.Inputs(tensor.NewRNG(7), b.MinSize, 0.5)
	if _, err := CorruptAnyQuantScale(c.Graph, float32(math.NaN())); err != nil {
		t.Fatal(err)
	}
	res, gr, err := c.GuardedRun(inputs, frameworks.GuardOptions{})
	if err != nil {
		t.Fatalf("NaN-scale run must degrade, not fail: %v", err)
	}
	if gr.Tier != guard.TierFloat32 {
		t.Fatalf("tier = %v, want float32 fallback (%v)", gr.Tier, gr.Degradations)
	}
	if err := guard.CheckFinite(res.Outputs); err != nil {
		t.Fatalf("fallback outputs still non-finite: %v", err)
	}
}
