package frameworks

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/plan"
)

// requireSameOrder fails unless two orders name the same nodes in the
// same sequence.
func requireSameOrder(t *testing.T, label string, got, want []*graph.Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: order lengths differ: %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("%s: order diverges at step %d: %s != %s", label, i, got[i].Name, want[i].Name)
		}
	}
}

// TestCompileDeterministic pins compile determinism end to end: two
// cold compiles of the same model must plan the same operator order (no
// map-iteration order may leak into the plan search).
func TestCompileDeterministic(t *testing.T) {
	for _, name := range []string{"CodeBERT", "BlockDrop", "YOLO-V6"} {
		b, ok := models.Get(name)
		if !ok {
			t.Fatalf("unknown model %q", name)
		}
		first, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		requireSameOrder(t, name, second.ExecPlan.Order, first.ExecPlan.Order)
	}
}

// TestCompileServesMemoryMinimalOrder: the order a compile serves,
// proves and persists is exactly the SEP planner's memory-minimal order.
func TestCompileServesMemoryMinimalOrder(t *testing.T) {
	for _, name := range []string{"CodeBERT", "BlockDrop", "Conformer"} {
		b, _ := models.Get(name)
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		sep, err := plan.Build(c.Graph, c.Infos, plan.Options{Fusion: c.FusionRDP})
		if err != nil {
			t.Fatal(err)
		}
		requireSameOrder(t, name, c.ExecPlan.Order, sep.Order)
		if c.ExecPlan.PeakBytes != sep.PeakBytes {
			t.Errorf("%s: served peak %d, SEP peak %d", name, c.ExecPlan.PeakBytes, sep.PeakBytes)
		}
	}
}

// TestArtifactReplaysSchedPoint: a warm boot must replay the persisted
// schedule — the memory-minimal order and its peak — without re-running
// the plan search.
func TestArtifactReplaysSchedPoint(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := models.Get("CodeBERT")
	cold, _, coldInfo, err := CompileWithStore(b, st, "sd888-cpu")
	if err != nil {
		t.Fatal(err)
	}
	if coldInfo.Warm {
		t.Fatal("first boot unexpectedly warm")
	}

	before := Counters()
	warm, _, warmInfo, err := CompileWithStore(b, st, "sd888-cpu")
	if err != nil {
		t.Fatal(err)
	}
	after := Counters()
	if !warmInfo.Warm {
		t.Fatalf("second boot not warm: %+v (fallback: %v)", warmInfo, warmInfo.CorruptFallback)
	}
	if after.PlanSearches != before.PlanSearches {
		t.Errorf("warm boot re-ran the search: plan %d->%d", before.PlanSearches, after.PlanSearches)
	}
	requireSameOrder(t, "warm", warm.ExecPlan.Order, cold.ExecPlan.Order)
	if warm.ExecPlan.PeakBytes != cold.ExecPlan.PeakBytes {
		t.Errorf("warm peak %d, cold peak %d", warm.ExecPlan.PeakBytes, cold.ExecPlan.PeakBytes)
	}
}
