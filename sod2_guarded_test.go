package sod2

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/tensor"
)

// The facade-level degradation contract: an input outside the analyzed
// range completes through a fallback tier, the report says so, and the
// result matches the unplanned reference execution.
func TestFacadeDegradedInferMatchesReference(t *testing.T) {
	b, err := BuildModel("YOLO-V6")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(tensor.NewRNG(3), 225, 0.5) // 225 % 32 != 0

	outs, rep, err := c.Infer(inputs)
	if err != nil {
		t.Fatalf("degraded inference should complete: %v", err)
	}
	if rep.FallbackTier != TierDynamic || len(rep.Degradations) == 0 {
		t.Fatalf("fallback not recorded: tier=%v degradations=%v", rep.FallbackTier, rep.Degradations)
	}
	if !strings.Contains(rep.Degradations[0].Reason, "% 32") {
		t.Errorf("degradation reason should quote the fact: %q", rep.Degradations[0].Reason)
	}

	ref, err := RunGraph(c.Graph(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range ref {
		if got := outs[name]; got == nil || !tensor.AllClose(got, want, 1e-5) {
			t.Errorf("degraded output %q diverges from reference", name)
		}
	}
}

// A contract violation is never the request's error: it completes on
// the dynamic tier, and the recorded step names the violated symbol.
func TestFacadeContractViolationDegrades(t *testing.T) {
	b, _ := BuildModel("YOLO-V6")
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(tensor.NewRNG(3), 225, 0.5)
	outs, rep, err := c.InferGuarded(inputs, GuardOptions{})
	if err != nil || len(outs) == 0 {
		t.Fatalf("violation should degrade, not fail: outputs %d, err %v", len(outs), err)
	}
	if rep.FallbackTier != TierDynamic || len(rep.Degradations) != 1 {
		t.Fatalf("tier %v, degradations %+v: want one step to dynamic", rep.FallbackTier, rep.Degradations)
	}
	if d := rep.Degradations[0]; d.Kind != guard.KindFact || d.To != TierDynamic || !strings.Contains(d.Reason, "symbol ") {
		t.Errorf("degradation %+v: want a fact step to dynamic naming the symbol", d)
	}
}

func TestFacadeInferCtxCancelled(t *testing.T) {
	b, _ := BuildModel("CodeBERT")
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = c.InferGuarded(b.Inputs(tensor.NewRNG(3), 64, 0.5), GuardOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestFacadeContractExposed(t *testing.T) {
	b, _ := BuildModel("YOLO-V6")
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	var facts []Fact
	facts = c.Contract().Facts
	if len(facts) == 0 {
		t.Fatal("YOLO contract should carry analyzed facts")
	}
}
