package frameworks

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// fleetBuilders picks two small models with proven memory plans (so
// PlannedArenaBytes gives non-zero admission estimates).
func fleetBuilders(t *testing.T) []*models.Builder {
	t.Helper()
	var out []*models.Builder
	for _, name := range []string{"CodeBERT", "Conformer"} {
		b, ok := models.Get(name)
		if !ok {
			t.Fatalf("model %q not registered", name)
		}
		out = append(out, b)
	}
	return out
}

// TestFleetWarmBoot: a second fleet over the same store warm-boots every
// model without a single plan search.
func TestFleetWarmBoot(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	builders := fleetBuilders(t)
	cfg := FleetConfig{Store: st}

	f1, err := BootFleet(builders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm, cold := f1.WarmCount(); warm != 0 || cold != len(builders) {
		t.Fatalf("first boot warm=%d cold=%d, want all cold", warm, cold)
	}

	before := Counters()
	f2, err := BootFleet(builders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := Counters()
	if warm, cold := f2.WarmCount(); warm != len(builders) || cold != 0 {
		for _, bi := range f2.Boots() {
			t.Logf("boot %s: warm=%v fallback=%v", bi.Model, bi.Warm, bi.CorruptFallback)
		}
		t.Fatalf("second boot warm=%d cold=%d, want all warm", warm, cold)
	}
	if after.PlanSearches != before.PlanSearches || after.FullCompiles != before.FullCompiles {
		t.Errorf("warm fleet boot ran compilation work: %+v -> %+v", before, after)
	}
	for _, bi := range f2.Boots() {
		if bi.BootMS < 0 {
			t.Errorf("boot %s: negative timing %v", bi.Model, bi.BootMS)
		}
	}

	// Unknown model: typed error.
	_, _, err = f2.Infer("NoSuchModel", nil)
	if !errors.Is(err, ErrUnknownModel) {
		t.Errorf("want ErrUnknownModel, got %v", err)
	}

	// Every served model appears in the stats, even idle ones with no
	// memory budget configured.
	if stats := f2.Stats(); len(stats.PerModel) != len(builders) {
		t.Errorf("PerModel has %d entries, want %d: %v", len(stats.PerModel), len(builders), stats.PerModel)
	}
}

// TestFleetAdmissionFairness holds one model's share saturated and
// asserts (a) further requests for that model shed with the model's
// name in the typed error, (b) the other model keeps serving.
func TestFleetAdmissionFairness(t *testing.T) {
	builders := fleetBuilders(t)
	nameA, nameB := builders[0].Name, builders[1].Name

	// Sizing pass: learn each model's planned arena estimate.
	probe, err := BootFleet(builders, FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	estA := probe.Model(nameA).PlannedArenaBytes(GuardOptions{})
	estB := probe.Model(nameB).PlannedArenaBytes(GuardOptions{})
	if estA == 0 || estB == 0 {
		t.Skipf("need proven arena estimates, got %d/%d", estA, estB)
	}

	// Budget fits both models' single requests; each model's share fits
	// exactly one of its requests (so the second concurrent one sheds).
	budget := 2 * (estA + estB)
	shares := map[string]float64{
		nameA: 1.5 * float64(estA) / float64(budget),
		nameB: 1.5 * float64(estB) / float64(budget),
	}

	// The first kernel of the first request parks until released, so the
	// test can hold model A's reservation while probing the gate.
	blocked := make(chan struct{})
	proceed := make(chan struct{})
	var first atomic.Bool
	hooks := &exec.Hooks{PreKernel: func(n *graph.Node, in []*tensor.Tensor) error {
		if first.CompareAndSwap(false, true) {
			close(blocked)
			<-proceed
		}
		return nil
	}}

	f, err := BootFleet(builders, FleetConfig{
		Admission: resilience.AdmissionConfig{MemoryBudget: budget},
		Shares:    shares,
		Guard:     GuardOptions{Hooks: hooks},
	})
	if err != nil {
		t.Fatal(err)
	}

	inA := builders[0].Inputs(tensor.NewRNG(1), builders[0].MinSize, 0.5)
	inB := builders[1].Inputs(tensor.NewRNG(1), builders[1].MinSize, 0.5)

	done := make(chan error, 1)
	go func() {
		_, _, err := f.Infer(nameA, inA)
		done <- err
	}()
	select {
	case <-blocked:
	case <-time.After(30 * time.Second):
		t.Fatal("held request never reached its first kernel")
	}

	// A's share is saturated: a second A request sheds, typed per model.
	_, _, err = f.InferCtx(context.Background(), nameA, inA)
	var oe *resilience.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OverloadError for saturated %s, got %v", nameA, err)
	}
	if oe.Key != nameA || oe.Resource != "memory" {
		t.Errorf("shed = %+v, want memory shed keyed %q", oe, nameA)
	}

	// B is isolated: its share is untouched by A's saturation.
	if _, _, err := f.Infer(nameB, inB); err != nil {
		t.Errorf("%s must keep serving while %s is saturated: %v", nameB, nameA, err)
	}

	close(proceed)
	if err := <-done; err != nil {
		t.Fatalf("held request failed: %v", err)
	}

	stats := f.Stats()
	if stats.PerModel[nameA].Shed != 1 {
		t.Errorf("%s sheds = %d, want 1", nameA, stats.PerModel[nameA].Shed)
	}
	if stats.PerModel[nameB].Shed != 0 {
		t.Errorf("%s sheds = %d, want 0", nameB, stats.PerModel[nameB].Shed)
	}
	if stats.Global.ReservedBytes != 0 {
		t.Errorf("reservation leaked: %d bytes", stats.Global.ReservedBytes)
	}
}
