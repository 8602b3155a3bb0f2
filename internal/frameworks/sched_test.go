package frameworks

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/models"
)

// TestCompileDeterministic pins compile determinism end to end: two
// cold compiles of the same model must select the same scheduling point
// and the same operator order (no map-iteration order may leak into the
// plan search or the frontier).
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
		if first.Sched != second.Sched {
			t.Errorf("%s: scheduling point differs across compiles: %+v != %+v",
				name, first.Sched, second.Sched)
		}
		a, bOrd := first.ExecPlan.Order, second.ExecPlan.Order
		if len(a) != len(bOrd) {
			t.Fatalf("%s: order lengths differ: %d != %d", name, len(a), len(bOrd))
		}
		for i := range a {
			if a[i].Name != bOrd[i].Name {
				t.Fatalf("%s: order diverges at step %d: %s != %s",
					name, i, a[i].Name, bOrd[i].Name)
			}
		}
	}
}

// TestCompileSelectsWidthAwarePoint asserts the Pareto search actually
// runs under the default config and that at least one evaluation model
// trades memory for width (the whole point of the frontier).
func TestCompileSelectsWidthAwarePoint(t *testing.T) {
	widened := false
	for _, name := range []string{"CodeBERT", "BlockDrop", "Conformer"} {
		b, _ := models.Get(name)
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		if c.Sched.CapFactor <= 0 {
			t.Errorf("%s: width-aware search did not record a point: %+v", name, c.Sched)
		}
		if c.Sched.AnchorPeakBytes <= 0 {
			t.Errorf("%s: anchor peak missing from point: %+v", name, c.Sched)
		}
		if c.WavePlan != nil && c.WavePlan.MaxWidth >= 4 {
			widened = true
		}
	}
	if !widened {
		t.Error("no model reached wave width >= 4 under the default scheduling config")
	}
}

// TestArtifactReplaysSchedPoint: a warm boot must replay the persisted
// scheduling point (cap factor, workers, anchor peak, makespan) and the
// exact chosen order without re-running the plan search.
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
	if cold.Sched.CapFactor <= 0 {
		t.Fatalf("cold compile recorded no scheduling point: %+v", cold.Sched)
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
	if after.PlanSearches != before.PlanSearches || after.WaveBuilds != before.WaveBuilds {
		t.Errorf("warm boot re-ran the search: plan %d->%d, waves %d->%d",
			before.PlanSearches, after.PlanSearches, before.WaveBuilds, after.WaveBuilds)
	}
	if warm.Sched != cold.Sched {
		t.Errorf("warm boot replayed point %+v, cold chose %+v", warm.Sched, cold.Sched)
	}
	for i := range cold.ExecPlan.Order {
		if warm.ExecPlan.Order[i].Name != cold.ExecPlan.Order[i].Name {
			t.Fatalf("warm order diverges at step %d: %s != %s",
				i, warm.ExecPlan.Order[i].Name, cold.ExecPlan.Order[i].Name)
		}
	}
}
