package frameworks

// Weight-only quantization as a compile configuration: eligible
// initializers are re-packed into int8 storage with a per-row scale.
// The pass runs after all shape analysis and planning — it changes
// values' storage, never their shapes — so every statically derived
// plan stays valid, and the original float32 weights are retained as
// the fallback tier the guard re-serves from when a quantized run
// violates its accuracy contract.

import (
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/tensor"
)

// QuantConfig selects weight-only quantized storage for a compile.
type QuantConfig struct {
	// Format is the packed storage format (Int8); any other value
	// disables the pass.
	Format tensor.DType
}

// quantMinElems is the smallest initializer worth packing: below it the
// scale overhead and the unpack cost beat the bandwidth win, and the
// f32 version is selected anyway.
const quantMinElems = 1024

// int8Budget is every int8 compile's accuracy-drift contract.
var int8Budget = guard.QuantBudget{MaxAbs: 0.005, MaxRel: 0.08}

// QuantReport describes the quantization pass applied to a compile.
type QuantReport struct {
	// Format is the packed storage format the pass installed.
	Format tensor.DType
	// Tensors counts initializers packed; Skipped counts weight-position
	// initializers left float32 (too small, non-f32, or unpackable).
	Tensors int
	Skipped int
	// FloatBytes and QuantBytes are the packed tensors' storage before
	// and after (scales included).
	FloatBytes int64
	QuantBytes int64
	// Budget is the accuracy-drift contract enforced for this compile.
	Budget guard.QuantBudget
}

// BytesRatio is packed bytes over float bytes for the packed tensors
// (1 when nothing was packed).
func (r *QuantReport) BytesRatio() float64 {
	if r == nil || r.FloatBytes == 0 {
		return 1
	}
	return float64(r.QuantBytes) / float64(r.FloatBytes)
}

// quantEligible returns initializer name → quantization row size for
// every initializer whose *only* uses are the weight operand of MatMul
// (rank 2: rows of length n stream per output column), Conv (rank 4:
// one row per output channel, matching the im2col inner extent), or the
// table of an axis-0 Gather (embedding lookup: one row per table entry,
// dequantized per selected row) — including uses inside If/Loop bodies.
// Any other use — bias adds, elementwise, shape inputs — disqualifies
// the tensor: those sites would pay a full dequantization per run.
func quantEligible(g *graph.Graph) map[string]int64 {
	rows := map[string]int64{}
	bad := map[string]bool{}
	var walk func(gr *graph.Graph)
	walk = func(gr *graph.Graph) {
		for _, n := range gr.Nodes {
			for i, in := range n.Inputs {
				if in == "" {
					continue
				}
				t, isInit := g.Initializers[in]
				if !isInit {
					continue
				}
				var rs int64
				switch {
				case n.OpType == "MatMul" && i == 1 && t.Rank() == 2:
					rs = t.Shape[1]
				case n.OpType == "Conv" && i == 1 && t.Rank() == 4:
					rs = t.Shape[1] * t.Shape[2] * t.Shape[3]
				case n.OpType == "Gather" && i == 0 && n.AttrInt("axis", 0) == 0 && t.Rank() >= 2:
					rs = tensor.NumElems(t.Shape[1:])
				}
				if rs <= 0 {
					bad[in] = true
					continue
				}
				if prev, ok := rows[in]; ok && prev != rs {
					bad[in] = true
					continue
				}
				rows[in] = rs
			}
			for _, a := range []string{"then_branch", "else_branch", "body"} {
				if b := n.AttrGraph(a); b != nil {
					walk(b)
				}
			}
		}
	}
	walk(g)
	for name := range bad {
		delete(rows, name)
	}
	return rows
}

// applyQuantization packs the eligible weights, swaps them into a
// shallow copy of the compiled graph (node pointers are shared, so the
// execution order and every node-keyed plan stay valid) and keeps the
// float32 originals for the fallback tier.
func (c *Compiled) applyQuantization(qc QuantConfig) {
	rep := &QuantReport{Format: qc.Format, Budget: int8Budget}
	elig := quantEligible(c.Graph)
	var packed map[string]*tensor.Tensor
	floatInits := map[string]*tensor.Tensor{}
	for name, rowSize := range elig {
		t := c.Graph.Initializers[name]
		if t.DType != tensor.Float32 || t.Len() < quantMinElems {
			rep.Skipped++
			continue
		}
		q, err := tensor.Quantize(t, qc.Format, rowSize)
		if err != nil {
			// Non-finite weight values: the format cannot represent
			// them; this tensor serves float32.
			rep.Skipped++
			continue
		}
		if packed == nil {
			packed = make(map[string]*tensor.Tensor, len(c.Graph.Initializers))
			for k, v := range c.Graph.Initializers {
				packed[k] = v
			}
		}
		packed[name] = q
		floatInits[name] = t
		rep.Tensors++
		rep.FloatBytes += t.Bytes()
		rep.QuantBytes += q.Bytes()
	}
	c.Quant = rep
	if rep.Tensors == 0 {
		return
	}
	qg := *c.Graph
	qg.Initializers = packed
	c.Graph = &qg
	c.floatInits = floatInits
}

// floatGraph returns the compiled topology with the original float32
// weights restored — the graph the accuracy-contract fallback tier
// executes. For unquantized compiles it is the compiled graph itself.
func (c *Compiled) floatGraph() *graph.Graph {
	if len(c.floatInits) == 0 {
		return c.Graph
	}
	fg := *c.Graph
	inits := make(map[string]*tensor.Tensor, len(c.Graph.Initializers))
	for k, v := range c.Graph.Initializers {
		inits[k] = v
	}
	for k, v := range c.floatInits {
		inits[k] = v
	}
	fg.Initializers = inits
	return &fg
}

// WeightBytes sums the storage of every initializer as compiled
// (packed bytes for quantized weights, including scales).
func (c *Compiled) WeightBytes() int64 {
	var total int64
	for _, t := range c.Graph.Initializers {
		total += t.Bytes()
	}
	return total
}
