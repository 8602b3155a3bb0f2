package models

import (
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// gateCtl declares the scalar gate-bias input control-flow models take:
// added to every gate logit before the sigmoid, it shifts how often
// blocks execute (the workload's path-activity knob).
func (b *bctx) gateCtl() {
	b.g.AddInput("gatectl", tensor.Float32, lattice.FromInts(1))
}

// dataGate computes a data-dependent scalar gate from features plus the
// gate-bias input (execution-determined control flow).
func (b *bctx) dataGate(x string, c int64) string {
	pooled := b.op("GlobalAveragePool", []string{x}, nil)
	flat := b.op("Flatten", []string{pooled}, nil) // [1, C]
	logit := b.linear(flat, c, 1, "")
	biased := b.op("Add", []string{logit, "gatectl"}, nil)
	sig := b.op("Sigmoid", []string{biased}, nil)
	return b.op("ReduceMax", []string{sig}, map[string]graph.AttrValue{
		"keepdims": graph.IntAttr(0)}) // scalar
}

// gateCtlSpec declares the gate-bias input; it draws nothing from the
// sample's RNG.
func gateCtlSpec(gateBias float32) InputSpec {
	return InputSpec{Name: "gatectl", DType: tensor.Float32, Shape: []int64{1},
		Fill: func(_ *tensor.RNG, t *tensor.Tensor) {
			// Map [0,1] activity to a logit bias in [-2, +2].
			t.F[0] = gateBias*4 - 2
		}}
}

// buildSkipNet: ResNet with per-block learned skipping gates
// (shape + control-flow dynamism).
func buildSkipNet() *graph.Graph {
	const c = 16
	b := newCtx("skipnet")
	b.imageInput("image", 3)
	b.gateCtl()

	x := b.conv("image", 3, c, 3, 2, 1, "Relu") // /2
	x = b.op("MaxPool", []string{x}, map[string]graph.AttrValue{
		"kernel_shape": graph.IntsAttr(2, 2), "strides": graph.IntsAttr(2, 2)}) // /4
	for i := 0; i < 3; i++ {
		gate := b.dataGate(x, c)
		x = b.gatedResidual(x, gate, c)
	}
	x = b.conv(x, c, c*2, 3, 2, 1, "Relu") // /8
	for i := 0; i < 2; i++ {
		gate := b.dataGate(x, c*2)
		x = b.gatedResidual(x, gate, c*2)
	}
	pooled := b.op("GlobalAveragePool", []string{x}, nil)
	flat := b.op("Flatten", []string{pooled}, nil)
	logits := b.linear(flat, c*2, 10, "")
	b.g.AddOutput(logits)
	return b.g
}

// buildConvNetAIG: adaptive inference graphs — like SkipNet but gates come
// from a small two-logit decision head (shape + control-flow dynamism).
func buildConvNetAIG() *graph.Graph {
	const c = 16
	b := newCtx("convnet-aig")
	b.imageInput("image", 3)
	b.gateCtl()

	aigGate := func(x string, ch int64) string {
		pooled := b.op("GlobalAveragePool", []string{x}, nil)
		flat := b.op("Flatten", []string{pooled}, nil)
		two := b.linear(flat, ch, 2, "")
		keepL := b.op("Slice", []string{two,
			b.constInts("s0", []int64{1}, []int64{0}),
			b.constInts("e1", []int64{1}, []int64{1}),
			b.constInts("a1", []int64{1}, []int64{1})}, nil) // [1,1]
		dropL := b.op("Slice", []string{two,
			b.constInts("s1", []int64{1}, []int64{1}),
			b.constInts("e2", []int64{1}, []int64{2}),
			b.constInts("a1b", []int64{1}, []int64{1})}, nil)
		diff := b.op("Sub", []string{keepL, dropL}, nil)
		biased := b.op("Add", []string{diff, "gatectl"}, nil)
		sig := b.op("Sigmoid", []string{biased}, nil)
		return b.op("ReduceMax", []string{sig}, map[string]graph.AttrValue{
			"keepdims": graph.IntAttr(0)})
	}

	// Two stages with channel growth (the real ConvNet-AIG widens
	// 64→512 across its ResNet stages).
	x := b.conv("image", 3, c, 3, 2, 1, "Relu")
	x = b.conv(x, c, c, 3, 2, 1, "Relu")
	for i := 0; i < 2; i++ {
		gate := aigGate(x, c)
		x = b.gatedResidual(x, gate, c)
	}
	x = b.conv(x, c, c*2, 3, 2, 1, "Relu")
	for i := 0; i < 2; i++ {
		gate := aigGate(x, c*2)
		x = b.gatedResidual(x, gate, c*2)
	}
	pooled := b.op("GlobalAveragePool", []string{x}, nil)
	flat := b.op("Flatten", []string{pooled}, nil)
	logits := b.linear(flat, c*2, 10, "")
	b.g.AddOutput(logits)
	return b.g
}

// buildBlockDrop: a tiny policy network decides all block gates up front,
// then the backbone executes only the selected residual blocks.
func buildBlockDrop() *graph.Graph {
	const (
		c      = 16
		blocks = 4
	)
	b := newCtx("blockdrop")
	b.imageInput("image", 3)
	b.gateCtl()

	// Policy network over a heavily-downsampled view.
	p := b.conv("image", 3, 8, 3, 4, 1, "Relu")
	p = b.op("GlobalAveragePool", []string{p}, nil)
	p = b.op("Flatten", []string{p}, nil)
	policy := b.linear(p, 8, blocks, "")
	policy = b.op("Add", []string{policy, "gatectl"}, nil)
	policy = b.op("Sigmoid", []string{policy}, nil) // [1, blocks]

	x := b.conv("image", 3, c, 3, 2, 1, "Relu")
	x = b.conv(x, c, c, 3, 2, 1, "Relu")
	for i := 0; i < blocks; i++ {
		gi := b.op("Slice", []string{policy,
			b.constInts("s", []int64{1}, []int64{int64(i)}),
			b.constInts("e", []int64{1}, []int64{int64(i + 1)}),
			b.constInts("a", []int64{1}, []int64{1})}, nil)
		gate := b.op("ReduceMax", []string{gi}, map[string]graph.AttrValue{
			"keepdims": graph.IntAttr(0)})
		x = b.gatedResidual(x, gate, c)
	}
	pooled := b.op("GlobalAveragePool", []string{x}, nil)
	flat := b.op("Flatten", []string{pooled}, nil)
	logits := b.linear(flat, c, 10, "")
	b.g.AddOutput(logits)
	return b.g
}

// buildDGNet: dynamic gating network — control-flow dynamism only, the
// input resolution is fixed at 224 (the paper notes DGNet does not
// support dynamic shapes).
func buildDGNet() *graph.Graph {
	const c = 16
	b := newCtx("dgnet")
	b.g.AddInput("image", tensor.Float32, lattice.FromInts(1, 3, 224, 224))
	b.gateCtl()

	x := b.conv("image", 3, c, 3, 2, 1, "Relu")
	x = b.conv(x, c, c, 3, 2, 1, "Relu")
	for i := 0; i < 4; i++ {
		gate := b.dataGate(x, c)
		x = b.gatedResidual(x, gate, c)
	}
	x = b.conv(x, c, c*2, 3, 2, 1, "Relu")
	gate := b.dataGate(x, c*2)
	x = b.gatedResidual(x, gate, c*2)
	pooled := b.op("GlobalAveragePool", []string{x}, nil)
	flat := b.op("Flatten", []string{pooled}, nil)
	logits := b.linear(flat, c*2, 10, "")
	b.g.AddOutput(logits)
	return b.g
}

// buildRaNet: resolution-adaptive network — classify at low resolution
// first; if confidence is low, an If-branch escalates to the full
// resolution (shape + control-flow dynamism).
func buildRaNet() *graph.Graph {
	const c = 16
	b := newCtx("ranet")
	b.imageInput("image", 3)
	b.gateCtl()

	// Low-resolution pass: ×2 strided-slice downsampling (keeps the
	// spatial dims symbolic: H/2, W/2), then a small stack.
	lowImg := b.op("Slice", []string{"image",
		b.constInts("ds", []int64{2}, []int64{0, 0}),
		b.constInts("de", []int64{2}, []int64{1 << 30, 1 << 30}),
		b.constInts("da", []int64{2}, []int64{2, 3}),
		b.constInts("dt", []int64{2}, []int64{2, 2})}, nil)
	low := b.conv(lowImg, 3, c, 3, 2, 1, "Relu")
	low = b.conv(low, c, c, 3, 2, 1, "Relu")
	lowPooled := b.op("GlobalAveragePool", []string{low}, nil)
	lowFlat := b.op("Flatten", []string{lowPooled}, nil)
	lowLogits := b.linear(lowFlat, c, 10, "")

	// Early-exit confidence.
	conf := b.op("ReduceMax", []string{b.op("Softmax", []string{lowLogits}, nil)},
		map[string]graph.AttrValue{"keepdims": graph.IntAttr(0)})
	conf = b.op("Add", []string{conf, "gatectl"}, nil)
	thr := b.fresh("thr")
	b.g.AddInitializer(thr, tensor.Scalar(0.55))
	cond := b.op("Greater", []string{conf, thr}, nil) // scalar bool

	// then: keep the low-res answer; else: full-resolution network.
	thenB := newCtx("ranet_exit")
	thenB.g.AddInput("lowl", tensor.Float32, lattice.FromInts(1, 10))
	thenB.g.AddInput("img", tensor.Float32, lattice.UndefShape())
	thenOut := thenB.op("Identity", []string{"lowl"}, nil)
	thenB.g.AddOutput(thenOut)

	elseB := newCtx("ranet_full")
	elseB.g.AddInput("lowl", tensor.Float32, lattice.FromInts(1, 10))
	elseB.g.AddInput("img", tensor.Float32, lattice.UndefShape())
	fx := elseB.conv("img", 3, c, 3, 2, 1, "Relu")
	fx = elseB.conv(fx, c, c*2, 3, 2, 1, "Relu")
	fx = elseB.conv(fx, c*2, c*2, 3, 1, 1, "Relu")
	fp := elseB.op("GlobalAveragePool", []string{fx}, nil)
	ff := elseB.op("Flatten", []string{fp}, nil)
	fullLogits := elseB.linear(ff, c*2, 10, "")
	mixed := elseB.op("Add", []string{fullLogits, "lowl"}, nil)
	elseB.g.AddOutput(mixed)

	out := b.fresh("out")
	b.g.Op("If", b.fresh("If"), []string{cond, lowLogits, "image"}, []string{out},
		map[string]graph.AttrValue{
			"then_branch": graph.GraphAttr(thenB.g),
			"else_branch": graph.GraphAttr(elseB.g),
		})
	b.g.AddOutput(out)
	return b.g
}

// gatedImageSpec declares the control-flow models' inputs: the image,
// then the gate bias.
func gatedImageSpec(size int64, gateBias float32) []InputSpec {
	return []InputSpec{imageSpec(size), gateCtlSpec(gateBias)}
}

func init() {
	register(&Builder{
		Name: "SkipNet", Paper: "[63]", Dynamism: "S+C", Kind: KindImage,
		MinSize: 224, MaxSize: 640, SizeStep: 8,
		Build: buildSkipNet, Spec: gatedImageSpec,
	})
	register(&Builder{
		Name: "DGNet", Paper: "[37]", Dynamism: "C", Kind: KindImage,
		MinSize: 224, MaxSize: 224, SizeStep: 1,
		Build: buildDGNet, Spec: gatedImageSpec,
	})
	register(&Builder{
		Name: "ConvNet-AIG", Paper: "[62]", Dynamism: "S+C", Kind: KindImage,
		MinSize: 224, MaxSize: 640, SizeStep: 8,
		Build: buildConvNetAIG, Spec: gatedImageSpec,
	})
	register(&Builder{
		Name: "RaNet", Paper: "[68]", Dynamism: "S+C", Kind: KindImage,
		MinSize: 224, MaxSize: 640, SizeStep: 8,
		Build: buildRaNet, Spec: gatedImageSpec,
	})
	register(&Builder{
		Name: "BlockDrop", Paper: "[65]", Dynamism: "S+C", Kind: KindImage,
		MinSize: 224, MaxSize: 640, SizeStep: 8,
		Build: buildBlockDrop, Spec: gatedImageSpec,
	})
}
