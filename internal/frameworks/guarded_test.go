package frameworks

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/models"
	"repro/internal/staticverify"
	"repro/internal/symbolic"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func compileModel(t *testing.T, name string) *Compiled {
	t.Helper()
	b, ok := models.Get(name)
	if !ok {
		t.Fatalf("model %s not registered", name)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return c
}

// The region is read off the declared sampling range: a stride-sampled
// symbol gets the strided interval, a step-1 symbol the plain range, and
// a symbol the probe saw constant its point.
func TestRegionDerivedFromSamplingRange(t *testing.T) {
	for _, tc := range []struct {
		model string
		want  map[string]symbolic.Interval
	}{
		{"YOLO-V6", map[string]symbolic.Interval{
			"H": symbolic.NewInterval(224, 640, 32), "W": symbolic.NewInterval(224, 640, 32)}},
		{"CodeBERT", map[string]symbolic.Interval{"L": symbolic.NewInterval(32, 384, 1)}},
		{"StableDiffusion", map[string]symbolic.Interval{"H": symbolic.NewInterval(64, 224, 8),
			"L": symbolic.Point(16), "W": symbolic.NewInterval(64, 224, 8)}},
	} {
		c := compileModel(t, tc.model)
		if got := c.Verify().Region; !maps.Equal(got, staticverify.Region(tc.want)) {
			t.Errorf("%s region = %v, want %v", tc.model, got, tc.want)
		}
	}
}

// A misaligned extent completes on the dynamic tier; its one recorded
// step is the region violation, naming the symbol and quoting its
// interval.
func TestMisalignedYOLODegradesOnFactStep(t *testing.T) {
	c := compileModel(t, "YOLO-V6")
	inputs := c.Builder.Inputs(tensor.NewRNG(7), 225, 0.5) // 225 % 32 != 0
	res, gr, err := c.GuardedRun(inputs, GuardOptions{})
	if err != nil || len(res.Outputs) == 0 {
		t.Fatalf("misaligned request should complete degraded: %v", err)
	}
	if gr.Tier != guard.TierDynamic || len(gr.Degradations) != 1 {
		t.Fatalf("tier %v, degradations %+v: want one step to dynamic", gr.Tier, gr.Degradations)
	}
	d := gr.Degradations[0]
	if d.Kind != guard.KindFact || d.From != guard.TierPlanned || d.To != guard.TierDynamic {
		t.Errorf("degradation %+v: want a fact step from planned to dynamic", d)
	}
	if !strings.Contains(d.Reason, `symbol H = 225 violates "H∈[224,640]/32"`) {
		t.Errorf("degradation should name the symbol and quote its interval: %q", d.Reason)
	}
}

func TestGuardedRunPlannedTier(t *testing.T) {
	c := compileModel(t, "YOLO-V6")
	inputs := c.Builder.Inputs(tensor.NewRNG(7), 256, 0.5)
	res, gr, err := c.GuardedRun(inputs, GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gr.Tier != guard.TierPlanned || len(gr.Degradations) != 0 {
		t.Errorf("aligned input should stay planned: %+v", gr)
	}
	if gr.ArenaHighWater <= 0 {
		t.Errorf("planned tier should touch the arena, high water = %d", gr.ArenaHighWater)
	}
	if len(res.Outputs) == 0 {
		t.Error("no outputs")
	}
}

// The degradation table: every row must complete through a fallback tier
// with the degradation recorded, and produce outputs bit-identical to the
// unguarded, unplanned reference execution.
func TestDegradationPaths(t *testing.T) {
	cases := []struct {
		name     string
		model    string
		size     int64
		arrange  func(c *Compiled) (undo func())
		inputs   func(in map[string]*tensor.Tensor) // edits the generated inputs, when set
		wantTier guard.Tier
		wantKind guard.ViolationKind
		wantSym  string // the symbol a KindFact step names
	}{
		{
			name:  "misaligned extent falls back to dynamic",
			model: "YOLO-V6", size: 225,
			wantTier: guard.TierDynamic, wantKind: guard.KindFact, wantSym: "H",
		},
		{
			name:  "out-of-range extent falls back to dynamic",
			model: "YOLO-V6", size: 672,
			wantTier: guard.TierDynamic, wantKind: guard.KindFact, wantSym: "H",
		},
		{
			name:  "below-range extent falls back to dynamic",
			model: "CodeBERT", size: 16,
			wantTier: guard.TierDynamic, wantKind: guard.KindFact, wantSym: "L",
		},
		{
			// The probe pinned L∈{16}; the region refuses any other
			// token count before a proof is consulted.
			name:  "pinned symbol bound elsewhere falls back to dynamic",
			model: "StableDiffusion", size: 64,
			inputs: func(in map[string]*tensor.Tensor) {
				in["tokens"] = tensor.New(tensor.Int64, 1, 12)
			},
			wantTier: guard.TierDynamic, wantKind: guard.KindFact, wantSym: "L",
		},
		{
			// A request inside the contract that no proof covers: the
			// planned rung has no other plan source.
			name:  "unproven memory plan falls back to dynamic",
			model: "YOLO-V6", size: 256,
			arrange:  plantUnprovenMemory,
			wantTier: guard.TierDynamic, wantKind: guard.KindMemPlan,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compileModel(t, tc.model)
			if tc.arrange != nil {
				defer tc.arrange(c)()
			}
			inputs := c.Builder.Inputs(tensor.NewRNG(7), tc.size, 0.5)
			if tc.inputs != nil {
				tc.inputs(inputs)
			}
			res, gr, err := c.GuardedRun(inputs, GuardOptions{})
			if err != nil {
				t.Fatalf("degraded run should complete: %v", err)
			}
			if gr.Tier != tc.wantTier {
				t.Errorf("tier = %v, want %v (%+v)", gr.Tier, tc.wantTier, gr.Degradations)
			}
			if len(gr.Degradations) == 0 {
				t.Fatal("no degradation recorded")
			}
			d := gr.Degradations[0]
			if d.Kind != tc.wantKind || d.To != tc.wantTier {
				t.Errorf("degradation = %+v, want kind %v to %v", d, tc.wantKind, tc.wantTier)
			}
			if tc.wantSym != "" {
				// The degradation records the reason only; the entry
				// verdict it came from names the symbol and value.
				env, err := c.Contract().BindInputs(inputs)
				if err != nil {
					t.Fatal(err)
				}
				var ce *guard.ContractError
				if err := c.Verify().Region.Check(env); !errors.As(err, &ce) || ce.Symbol != tc.wantSym || ce.Value != env[tc.wantSym] {
					t.Errorf("region verdict %v, want a violation naming %s = %d", err, tc.wantSym, env[tc.wantSym])
				}
				if !strings.Contains(d.Reason, "symbol "+tc.wantSym+" = ") {
					t.Errorf("degradation %q does not name %s", d.Reason, tc.wantSym)
				}
			}

			// Degraded outputs must match the plain unplanned execution.
			ref, err := exec.Run(c.Graph, inputs, exec.Options{})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			requireBitIdentical(t, tc.model, res.Outputs, ref.Outputs)
		})
	}
}

// A missing input is one no tier can run: it is refused before any rung
// is chosen, on the proven path and the quarantined one alike.
func TestGuardedRunMissingInput(t *testing.T) {
	c := compileModel(t, "CodeBERT")
	for _, opts := range []GuardOptions{{}, {ForceDynamic: true}} {
		_, gr, err := c.GuardedRun(nil, opts)
		var ce *guard.ContractError
		if !errors.As(err, &ce) || ce.Kind != guard.KindInput {
			t.Errorf("ForceDynamic %v: want an input violation, got %v (tier %v)", opts.ForceDynamic, err, gr.Tier)
		}
	}
}

// A binding that contradicts the RDP fixed point (not merely out of
// range) is served on the dynamic tier with one bind degradation: the
// compiled order is a valid schedule for any shapes, so nothing is
// re-analyzed, and the outputs are exact.
func TestDynamicTierOnBindViolation(t *testing.T) {
	b := &models.Builder{
		Name: "toy-fixed", MinSize: 4, MaxSize: 4, SizeStep: 1,
		Build: func() *graph.Graph {
			g := graph.New("toy")
			g.AddInput("x", tensor.Float32, lattice.FromInts(4))
			g.Op("Relu", "r", []string{"x"}, []string{"h"}, nil)
			g.Op("Neg", "n", []string{"h"}, []string{"y"}, nil)
			g.AddOutput("y")
			return g
		},
		Spec: func(size int64, _ float32) []models.InputSpec {
			return []models.InputSpec{{Name: "x", DType: tensor.Float32, Shape: []int64{size}, Fill: models.FillNormal}}
		},
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	// 8 elements against a shape analyzed as exactly 4: contradiction.
	inputs := map[string]*tensor.Tensor{"x": tensor.FromFloats([]int64{8}, []float32{1, -2, 3, -4, 5, -6, 7, -8})}
	res, gr, err := c.GuardedRun(inputs, GuardOptions{})
	if err != nil {
		t.Fatalf("dynamic run should complete: %v", err)
	}
	if gr.Tier != guard.TierDynamic {
		t.Fatalf("tier = %v, want dynamic (%+v)", gr.Tier, gr.Degradations)
	}
	if len(gr.Degradations) != 1 || gr.Degradations[0].Kind != guard.KindBind || gr.Degradations[0].To != guard.TierDynamic {
		t.Errorf("degradations = %+v, want one bind step to dynamic", gr.Degradations)
	}
	want := []float32{-1, 0, -3, 0, -5, 0, -7, 0}
	got := res.Outputs["y"]
	if got == nil || !slices.Equal(got.Shape, []int64{8}) || !slices.Equal(got.F, want) {
		t.Errorf("output = %v, want %v", got, want)
	}
}

func TestGuardedRunHonorsContext(t *testing.T) {
	c := compileModel(t, "CodeBERT")
	inputs := c.Builder.Inputs(tensor.NewRNG(7), 64, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GuardedRun(inputs, GuardOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestEngineFallsBackToTopoOrder(t *testing.T) {
	c := compileModel(t, "CodeBERT")
	// Corrupt the planned order: reverse it so the first scheduled node
	// consumes values that have not been produced yet.
	good := c.ExecPlan.Order
	bad := make([]*graph.Node, len(good))
	for i, n := range good {
		bad[len(good)-1-i] = n
	}
	c.ExecPlan.Order = bad
	defer func() { c.ExecPlan.Order = good }()

	eng := NewSoD2(FullSoD2())
	s := workload.Fixed(c.Builder, 1, 64, 0.5, 7)[0]
	rep, err := eng.Run(c, s, costmodel.SD888CPU)
	if err != nil {
		t.Fatalf("engine should fall back to declaration order: %v", err)
	}
	if rep.FallbackTier != guard.TierDynamic || len(rep.Degradations) != 1 || rep.Degradations[0].To != guard.TierDynamic {
		t.Errorf("fallback not recorded: tier=%v degradations=%v", rep.FallbackTier, rep.Degradations)
	}
}
