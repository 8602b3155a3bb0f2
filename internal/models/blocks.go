// Package models builds structurally-faithful, scaled-down computational
// graphs for the 10 dynamic DNNs of the paper's evaluation (Table 5):
// StableDiffusion-Encoder, SegmentAnything, Conformer, CodeBERT, YOLO-v6,
// SkipNet, DGNet, ConvNet-AIG, RaNet, and BlockDrop. Each keeps the
// original's dynamism type (shape / control-flow / both), operator mix,
// and architectural skeleton; depth and width are scaled down so the
// whole evaluation runs on a laptop (see DESIGN.md §2 for why this
// preserves the analyses' behaviour).
package models

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// InputKind describes what a model consumes (Table 5's "Input Type").
type InputKind string

// Input kinds.
const (
	KindImage     InputKind = "Image"
	KindText      InputKind = "Text"
	KindAudio     InputKind = "Audio"
	KindTextImage InputKind = "Text+Image"
)

// Builder describes one reproducible model.
type Builder struct {
	Name     string
	Paper    string // citation tag used in tables
	Dynamism string // "S", "C", or "S+C"
	Kind     InputKind
	// MinSize/MaxSize/SizeStep bound the dynamic input extent (image side
	// or sequence length) per the paper's §5.1 sampling ranges.
	MinSize, MaxSize, SizeStep int64
	// Build constructs the graph with symbolic input dims.
	Build func() *graph.Graph
	// Spec declares one sample's inputs in generation order. size is
	// the dynamic extent; gateBias ∈ [0,1] shifts control-flow gate
	// activity. Compiling reads only the declared dtypes and shapes;
	// Inputs fills them.
	Spec func(size int64, gateBias float32) []InputSpec
}

// InputSpec declares one input of a sample: its name, dtype and shape,
// and how its values are drawn.
type InputSpec struct {
	Name  string
	DType tensor.DType
	Shape []int64
	// Fill writes the input's values into t, a tensor of DType and Shape
	// with zeroed storage, drawing from rng.
	Fill func(rng *tensor.RNG, t *tensor.Tensor)
}

// Inputs materializes concrete inputs for one sample: each declared
// input's tensor, filled in Spec order from rng.
func (b *Builder) Inputs(rng *tensor.RNG, size int64, gateBias float32) map[string]*tensor.Tensor {
	specs := b.Spec(size, gateBias)
	out := make(map[string]*tensor.Tensor, len(specs))
	for _, s := range specs {
		t := tensor.New(s.DType, s.Shape...)
		s.Fill(rng, t)
		out[s.Name] = t
	}
	return out
}

// FillNormal fills a float32 input with standard-normal draws in index
// order: the values tensor.RandomFloats(rng, 1, shape...) holds.
func FillNormal(rng *tensor.RNG, t *tensor.Tensor) {
	for i := range t.F {
		t.F[i] = rng.NormFloat32()
	}
}

// fillTokens returns the Fill of a token-id input: one Intn(vocab) draw
// per id, in index order.
func fillTokens(vocab int64) func(*tensor.RNG, *tensor.Tensor) {
	return func(rng *tensor.RNG, t *tensor.Tensor) {
		for i := range t.I {
			t.I[i] = int64(rng.Intn(int(vocab)))
		}
	}
}

// imageSpec declares a size×size RGB image input.
func imageSpec(size int64) InputSpec {
	return InputSpec{Name: "image", DType: tensor.Float32, Shape: []int64{1, 3, size, size}, Fill: FillNormal}
}

// tokenSpec declares a [1, l] token-id input over vocab ids.
func tokenSpec(name string, l, vocab int64) InputSpec {
	return InputSpec{Name: name, DType: tensor.Int64, Shape: []int64{1, l}, Fill: fillTokens(vocab)}
}

var registry []*Builder

func register(b *Builder) { registry = append(registry, b) }

// All returns every model builder in Table 5 order.
func All() []*Builder { return registry }

// Get returns a builder by name.
func Get(name string) (*Builder, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// bctx carries naming and weight-initialization state while building.
type bctx struct {
	g   *graph.Graph
	rng *tensor.RNG
	n   int
}

func newCtx(name string) *bctx {
	return &bctx{g: graph.New(name), rng: tensor.NewRNG(0xC0FFEE)}
}

func (b *bctx) fresh(prefix string) string {
	b.n++
	// Value names carry the graph name so subgraph bodies (If/Loop) can
	// never collide with the parent graph's value namespace.
	return fmt.Sprintf("%s.%s_%d", b.g.Name, prefix, b.n)
}

// weight registers a random initializer and returns its name.
func (b *bctx) weight(prefix string, scale float32, shape ...int64) string {
	name := b.fresh(prefix)
	b.g.AddInitializer(name, tensor.RandomFloats(b.rng, scale, shape...))
	return name
}

// constInts registers an int64 initializer.
func (b *bctx) constInts(prefix string, shape []int64, vals []int64) string {
	name := b.fresh(prefix)
	b.g.AddInitializer(name, tensor.FromInts(shape, vals))
	return name
}

// op emits a node with one output and returns the output value name.
func (b *bctx) op(opType string, inputs []string, attrs map[string]graph.AttrValue) string {
	out := b.fresh("v")
	b.g.Op(opType, b.fresh(opType), inputs, []string{out}, attrs)
	return out
}

// conv adds Conv(+bias)+activation. act may be "" for linear.
func (b *bctx) conv(x string, cin, cout, k, stride, pad int64, act string) string {
	w := b.weight("w", 0.1, cout, cin, k, k)
	bias := b.weight("b", 0.01, cout)
	out := b.op("Conv", []string{x, w, bias}, map[string]graph.AttrValue{
		"strides": graph.IntsAttr(stride, stride),
		"pads":    graph.IntsAttr(pad, pad, pad, pad),
	})
	if act != "" {
		out = b.op(act, []string{out}, nil)
	}
	return out
}

// depthwise adds a depthwise Conv (group = channels).
func (b *bctx) depthwise(x string, c, k, stride, pad int64, act string) string {
	w := b.weight("dw", 0.1, c, 1, k, k)
	out := b.op("Conv", []string{x, w}, map[string]graph.AttrValue{
		"strides": graph.IntsAttr(stride, stride),
		"pads":    graph.IntsAttr(pad, pad, pad, pad),
		"group":   graph.IntAttr(c),
	})
	if act != "" {
		out = b.op(act, []string{out}, nil)
	}
	return out
}

// groupNorm applies GroupNormalization with scale/bias.
func (b *bctx) groupNorm(x string, c, groups int64) string {
	scale := b.weight("gns", 0.1, c)
	bias := b.weight("gnb", 0.01, c)
	return b.op("GroupNormalization", []string{x, scale, bias}, map[string]graph.AttrValue{
		"num_groups": graph.IntAttr(groups),
	})
}

// layerNorm applies LayerNormalization over the last dim.
func (b *bctx) layerNorm(x string, d int64) string {
	scale := b.weight("lns", 0.1, d)
	bias := b.weight("lnb", 0.01, d)
	return b.op("LayerNormalization", []string{x, scale, bias}, nil)
}

// linear applies x·W + bias over the last dim.
func (b *bctx) linear(x string, din, dout int64, act string) string {
	w := b.weight("lw", 0.1, din, dout)
	mm := b.op("MatMul", []string{x, w}, nil)
	bias := b.weight("lb", 0.01, dout)
	out := b.op("Add", []string{mm, bias}, nil)
	if act != "" {
		out = b.op(act, []string{out}, nil)
	}
	return out
}

// seqLen extracts dim 1 of x as a 1-element int vector via the
// Shape→Gather→Unsqueeze idiom (exercises ISDO + value tracking).
func (b *bctx) seqLenVec(x string) string {
	shp := b.op("Shape", []string{x}, nil)
	idx := b.constInts("idx", nil, []int64{1})
	l := b.op("Gather", []string{shp, idx}, nil)
	return b.op("Unsqueeze", []string{l}, map[string]graph.AttrValue{"axes": graph.IntsAttr(0)})
}

// attention builds one multi-head self-attention block over x [1, L, D]
// using the dynamic Reshape idiom (Shape-computation subgraph builds the
// [1, L, H, D/H] target). Returns the block output (with residual + LN).
func (b *bctx) attention(x string, d, heads int64) string {
	dh := d / heads
	q := b.linear(x, d, d, "")
	k := b.linear(x, d, d, "")
	v := b.linear(x, d, d, "")

	lvec := b.seqLenVec(x)
	one := b.constInts("c1", []int64{1}, []int64{1})
	hconst := b.constInts("ch", []int64{1}, []int64{heads})
	dhconst := b.constInts("cdh", []int64{1}, []int64{dh})
	target := b.op("Concat", []string{one, lvec, hconst, dhconst}, map[string]graph.AttrValue{
		"axis": graph.IntAttr(0)})

	split := func(t string) string {
		r := b.op("Reshape", []string{t, target}, nil)
		return b.op("Transpose", []string{r}, map[string]graph.AttrValue{
			"perm": graph.IntsAttr(0, 2, 1, 3)}) // [1, H, L, Dh]
	}
	qh, kh, vh := split(q), split(k), split(v)
	kt := b.op("Transpose", []string{kh}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 1, 3, 2)}) // [1, H, Dh, L]
	scores := b.op("MatMul", []string{qh, kt}, nil) // [1, H, L, L]
	scale := b.fresh("scale")
	b.g.AddInitializer(scale, tensor.Scalar(float32(1.0/float64(dh))))
	scaled := b.op("Mul", []string{scores, scale}, nil)
	attn := b.op("Softmax", []string{scaled}, nil)
	ctxT := b.op("MatMul", []string{attn, vh}, nil) // [1, H, L, Dh]
	back := b.op("Transpose", []string{ctxT}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 2, 1, 3)}) // [1, L, H, Dh]
	dconst := b.constInts("cd", []int64{1}, []int64{d})
	mergeTarget := b.op("Concat", []string{one, lvec, dconst}, map[string]graph.AttrValue{
		"axis": graph.IntAttr(0)})
	merged := b.op("Reshape", []string{back, mergeTarget}, nil) // [1, L, D]
	proj := b.linear(merged, d, d, "")
	res := b.op("Add", []string{x, proj}, nil)
	return b.layerNorm(res, d)
}

// ffn builds the transformer feed-forward block with residual + LN.
func (b *bctx) ffn(x string, d, hidden int64) string {
	h := b.linear(x, d, hidden, "Gelu")
	o := b.linear(h, hidden, d, "")
	res := b.op("Add", []string{x, o}, nil)
	return b.layerNorm(res, d)
}

// gatedResidual builds one control-flow gated residual block (SkipNet /
// ConvNet-AIG / BlockDrop style): a scalar gate value routes x either
// through the conv body or the identity skip via <Switch, Combine>.
func (b *bctx) gatedResidual(x, gate string, c int64) string {
	taken := b.fresh("taken")
	skipped := b.fresh("skip")
	b.g.Op("Switch", b.fresh("Switch"), []string{gate, x}, []string{taken, skipped}, nil)
	body := b.conv(taken, c, c, 3, 1, 1, "Relu")
	body = b.conv(body, c, c, 3, 1, 1, "")
	sum := b.op("Add", []string{body, taken}, nil)
	act := b.op("Relu", []string{sum}, nil)
	return b.op("Combine", []string{act, skipped}, nil)
}

// gateFromFeatures computes a data-dependent scalar gate from x
// (GlobalAveragePool → linear → Sigmoid): execution-determined control.
func (b *bctx) gateFromFeatures(x string, c int64) string {
	pooled := b.op("GlobalAveragePool", []string{x}, nil)
	flat := b.op("Flatten", []string{pooled}, nil) // [1, C]
	score := b.linear(flat, c, 1, "Sigmoid")
	return b.op("ReduceMax", []string{score}, map[string]graph.AttrValue{
		"keepdims": graph.IntAttr(0)}) // scalar
}

// imageInput declares the NCHW image input with symbolic H and W.
func (b *bctx) imageInput(name string, channels int64) {
	b.g.AddInput(name, tensor.Float32, lattice.Ranked(
		lattice.FromInt(1), lattice.FromInt(channels),
		lattice.FromExpr(symbolic.NewSym("H")), lattice.FromExpr(symbolic.NewSym("W"))))
}

// seqInput declares a [1, L, d] sequence input with symbolic L.
func (b *bctx) seqInput(name string, d int64) {
	b.g.AddInput(name, tensor.Float32, lattice.Ranked(
		lattice.FromInt(1), lattice.FromExpr(symbolic.NewSym("L")), lattice.FromInt(d)))
}
