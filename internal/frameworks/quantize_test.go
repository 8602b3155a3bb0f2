package frameworks

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/models"
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

// MinElems keeps small tensors float32 and the report counts them.
func TestQuantizeMinElemsSkip(t *testing.T) {
	b, _ := models.Get("CodeBERT")
	c, err := CompileSched(b, SchedConfig{
		Quant: QuantConfig{Format: tensor.Int8, MinElems: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Quant == nil || c.Quant.Tensors != 0 || c.Quant.Skipped == 0 {
		t.Fatalf("giant MinElems should skip everything: %+v", c.Quant)
	}
	for name, ti := range c.Graph.Initializers {
		if ti.DType.IsQuantized() {
			t.Fatalf("%q packed despite MinElems", name)
		}
	}
}
