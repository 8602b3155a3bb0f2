package frameworks

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/models"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// Quantization must never mutate the pre-quantization graph in place:
// OrigGraph (the graph as built, whose hash keys its stored artifact)
// and the float originals
// behind floatGraph() keep their f32 tensors.
func TestQuantizeLeavesOriginalGraphIntact(t *testing.T) {
	b, _ := models.Get("CodeBERT")
	c, err := CompileSched(b, SchedConfig{Quant: QuantConfig{Format: tensor.Int8}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Quant == nil || c.Quant.Tensors == 0 {
		t.Fatal("nothing packed")
	}
	for name, ti := range c.OrigGraph.Initializers {
		if ti.DType.IsQuantized() {
			t.Fatalf("OrigGraph initializer %q was quantized in place", name)
		}
	}
	fg := c.floatGraph()
	if fg == c.Graph {
		t.Fatal("floatGraph returned the quantized graph")
	}
	packed := 0
	for name, ti := range c.Graph.Initializers {
		if !ti.DType.IsQuantized() {
			continue
		}
		packed++
		orig := fg.Initializers[name]
		if orig == nil || orig.DType != tensor.Float32 {
			t.Fatalf("floatGraph lost the f32 original of %q", name)
		}
	}
	if packed != c.Quant.Tensors {
		t.Fatalf("graph holds %d packed tensors, report says %d", packed, c.Quant.Tensors)
	}
}

// Eligibility: only pure weight positions qualify. A tensor feeding both
// a MatMul weight slot and an elementwise op must stay float32.
func TestQuantEligibilityExcludesSharedUses(t *testing.T) {
	g := graph.New("elig")
	g.AddInput("x", tensor.Float32, lattice.FromInts(1, 64))
	rng := tensor.NewRNG(3)
	g.Initializers = map[string]*tensor.Tensor{
		"w_pure":   tensor.RandomFloats(rng, 1, 64, 64),  // MatMul weight only
		"w_shared": tensor.RandomFloats(rng, 1, 64, 64),  // MatMul weight + Add operand
		"table":    tensor.RandomFloats(rng, 1, 128, 32), // axis-0 Gather
		"idx":      tensor.FromInts([]int64{4}, []int64{0, 1, 2, 3}),
	}
	g.Op("MatMul", "m1", []string{"x", "w_pure"}, []string{"h1"}, nil)
	g.Op("MatMul", "m2", []string{"h1", "w_shared"}, []string{"h2"}, nil)
	g.Op("Add", "a1", []string{"h2", "w_shared"}, []string{"h3"}, nil)
	g.Op("Gather", "g1", []string{"table", "idx"}, []string{"emb"}, nil)
	g.AddOutput("h3")
	g.AddOutput("emb")
	rows := quantEligible(g)
	if _, ok := rows["w_pure"]; !ok {
		t.Error("pure MatMul weight not eligible")
	}
	if rows["table"] != 32 {
		t.Errorf("gather table rowSize = %d, want 32", rows["table"])
	}
	if _, ok := rows["w_shared"]; ok {
		t.Error("tensor with a non-weight use marked eligible")
	}
	if _, ok := rows["idx"]; ok {
		t.Error("gather indices marked eligible")
	}
}

// The quantMinElems floor keeps small tensors float32 and the report
// counts them: a weight one row of 32 under it stays float32, one at
// it packs.
func TestQuantizeMinElemsSkip(t *testing.T) {
	for _, tc := range []struct {
		cols   int64
		packed bool
	}{{quantMinElems/32 - 1, false}, {quantMinElems / 32, true}} {
		b := &models.Builder{
			Name: "toy-floor", MinSize: 2, MaxSize: 8, SizeStep: 1,
			Build: func() *graph.Graph {
				g := graph.New("toy-floor")
				g.AddInput("x", tensor.Float32, lattice.Ranked(
					lattice.FromInt(1), lattice.FromExpr(symbolic.NewSym("L")), lattice.FromInt(32)))
				g.AddInitializer("W", tensor.RandomFloats(tensor.NewRNG(3), 1, 32, tc.cols))
				g.Op("MatMul", "mm", []string{"x", "W"}, []string{"y"}, nil)
				g.AddOutput("y")
				return g
			},
		}
		c, err := CompileSched(b, SchedConfig{Quant: QuantConfig{Format: tensor.Int8}})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Graph.Initializers["W"].DType.IsQuantized(); got != tc.packed {
			t.Fatalf("32x%d weight packed = %v, want %v (floor %d)", tc.cols, got, tc.packed, quantMinElems)
		}
		if want := map[bool]int{false: 0, true: 1}[tc.packed]; c.Quant.Tensors != want || c.Quant.Skipped != 1-want {
			t.Fatalf("32x%d weight: report %+v, want %d packed / %d skipped", tc.cols, c.Quant, want, 1-want)
		}
	}
}

// Every int8 compile enforces the one int8 drift budget, and a warm boot
// restores it from the artifact unchanged.
func TestQuantBudgetSurvivesWarmBoot(t *testing.T) {
	b, ok := models.Get("CodeBERT")
	if !ok {
		t.Fatal("model CodeBERT not registered")
	}
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SchedConfig{Quant: QuantConfig{Format: tensor.Int8}}
	for _, wantWarm := range []bool{false, true} {
		c, _, info, err := CompileWithStoreSched(b, st, "cpu", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if info.Warm != wantWarm {
			t.Fatalf("boot warm = %v, want %v (%+v)", info.Warm, wantWarm, info)
		}
		if c.Quant == nil || c.Quant.Budget != int8Budget {
			t.Fatalf("warm=%v: quant report %+v, want budget %+v", wantWarm, c.Quant, int8Budget)
		}
	}
}
