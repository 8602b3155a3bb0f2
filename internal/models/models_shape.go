package models

import (
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// tokenInput declares a [1, L] int64 token-id input.
func (b *bctx) tokenInput(name string) {
	b.g.AddInput(name, tensor.Int64, lattice.Ranked(
		lattice.FromInt(1), lattice.FromExpr(symbolic.NewSym("L"))))
}

// buildCodeBERT: BERT-style encoder over token sequences (paper: shape
// dynamism, text input, 32–384 tokens).
func buildCodeBERT() *graph.Graph {
	const (
		vocab  = 128
		d      = 32
		heads  = 4
		layers = 2
		maxLen = 512
	)
	b := newCtx("codebert")
	b.tokenInput("tokens")
	emb := b.weight("emb", 0.1, vocab, d)
	x := b.op("Gather", []string{emb, "tokens"}, nil) // [1, L, d]

	// Positional embeddings: Range(0, L) → Gather(posTable).
	shp := b.op("Shape", []string{"tokens"}, nil)
	idx1 := b.constInts("i1", nil, []int64{1})
	lScalar := b.op("Gather", []string{shp, idx1}, nil)
	zero := b.constInts("z", nil, []int64{0})
	oneC := b.constInts("o", nil, []int64{1})
	posIDs := b.op("Range", []string{zero, lScalar, oneC}, nil) // [L]
	posTable := b.weight("pos", 0.02, maxLen, d)
	pos := b.op("Gather", []string{posTable, posIDs}, nil) // [L, d]
	x = b.op("Add", []string{x, pos}, nil)
	x = b.layerNorm(x, d)

	for i := 0; i < layers; i++ {
		x = b.attention(x, d, heads)
		x = b.ffn(x, d, d*4)
	}
	pooled := b.op("ReduceMean", []string{x}, map[string]graph.AttrValue{
		"axes": graph.IntsAttr(1), "keepdims": graph.IntAttr(0)}) // [1, d]
	logits := b.linear(pooled, d, 8, "")
	b.g.AddOutput(logits)
	return b.g
}

// buildConformer: convolution-augmented transformer for speech (shape
// dynamism over the time axis).
func buildConformer() *graph.Graph {
	const (
		nMel  = 16
		d     = 32
		heads = 4
	)
	b := newCtx("conformer")
	b.seqInput("audio", nMel) // [1, T, 16]

	// Conv subsampling: lift to NCHW, two stride-2 convs, fold back.
	x4 := b.op("Unsqueeze", []string{"audio"}, map[string]graph.AttrValue{
		"axes": graph.IntsAttr(1)}) // [1, 1, T, 16]
	c1 := b.conv(x4, 1, 8, 3, 2, 1, "Relu") // [1, 8, T/2, 8]
	c2 := b.conv(c1, 8, 8, 3, 2, 1, "Relu") // [1, 8, T/4, 4]
	// Back to sequence: [1, T', 32] with T' from the conv output shape.
	shp := b.op("Shape", []string{c2}, nil)
	idx2 := b.constInts("i2", []int64{1}, []int64{2})
	tvec := b.op("Gather", []string{shp, idx2}, nil) // [1] = T'
	oneV := b.constInts("ov", []int64{1}, []int64{1})
	negOne := b.constInts("m1", []int64{1}, []int64{-1})
	perm := b.op("Transpose", []string{c2}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 2, 1, 3)}) // [1, T', 8, 4]
	target := b.op("Concat", []string{oneV, tvec, negOne}, map[string]graph.AttrValue{
		"axis": graph.IntAttr(0)})
	seq := b.op("Reshape", []string{perm, target}, nil) // [1, T', 32]

	// Conformer block: half-FFN, MHSA, conv module, half-FFN.
	x := b.ffn(seq, d, d*2)
	x = b.attention(x, d, heads)

	// Conv module: pointwise → GLU-style gate → depthwise over time → point.
	pw := b.linear(x, d, d*2, "")
	a := b.op("Slice", []string{pw, b.constInts("s0", []int64{1}, []int64{0}),
		b.constInts("e0", []int64{1}, []int64{d}), b.constInts("a2", []int64{1}, []int64{2})}, nil)
	g := b.op("Slice", []string{pw, b.constInts("s1", []int64{1}, []int64{d}),
		b.constInts("e1", []int64{1}, []int64{2 * d}), b.constInts("a2b", []int64{1}, []int64{2})}, nil)
	gate := b.op("Sigmoid", []string{g}, nil)
	glu := b.op("Mul", []string{a, gate}, nil) // [1, T', d]
	// Depthwise conv over time: [1, T', d] → [1, d, T', 1].
	tr := b.op("Transpose", []string{glu}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 2, 1)})
	nchw := b.op("Unsqueeze", []string{tr}, map[string]graph.AttrValue{
		"axes": graph.IntsAttr(3)})
	dw := b.depthwise(nchw, d, 3, 1, 1, "Silu")
	back := b.op("Squeeze", []string{dw}, map[string]graph.AttrValue{
		"axes": graph.IntsAttr(3)})
	conv := b.op("Transpose", []string{back}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 2, 1)})
	x = b.op("Add", []string{x, conv}, nil)
	x = b.layerNorm(x, d)
	x = b.ffn(x, d, d*2)

	pooled := b.op("ReduceMean", []string{x}, map[string]graph.AttrValue{
		"axes": graph.IntsAttr(1), "keepdims": graph.IntAttr(0)})
	logits := b.linear(pooled, d, 16, "")
	b.g.AddOutput(logits)
	return b.g
}

// buildSDE: StableDiffusion encoder — VAE-style conv downstack with
// GroupNorm/SiLU, mid-block self-attention over flattened spatial tokens,
// and a text-conditioning branch.
func buildSDE() *graph.Graph {
	const (
		c1, c2, c3 = 8, 16, 32
		vocab      = 64
		d          = c3
	)
	b := newCtx("sde")
	b.imageInput("image", 3)
	b.tokenInput("tokens")

	x := b.conv("image", 3, c1, 3, 1, 1, "")
	x = b.groupNorm(x, c1, 4)
	x = b.op("Silu", []string{x}, nil)
	x = b.conv(x, c1, c1, 3, 2, 1, "Silu") // /2
	x = b.conv(x, c1, c2, 3, 2, 1, "")     // /4
	x = b.groupNorm(x, c2, 4)
	x = b.op("Silu", []string{x}, nil)
	x = b.conv(x, c2, c3, 3, 2, 1, "Silu") // /8, [1, 32, H/8, W/8]

	// Text conditioning: mean-pooled token embedding added per channel.
	emb := b.weight("temb", 0.1, vocab, d)
	te := b.op("Gather", []string{emb, "tokens"}, nil) // [1, L, d]
	tp := b.op("ReduceMean", []string{te}, map[string]graph.AttrValue{
		"axes": graph.IntsAttr(1), "keepdims": graph.IntAttr(0)}) // [1, d]
	cond := b.op("Unsqueeze", []string{tp}, map[string]graph.AttrValue{
		"axes": graph.IntsAttr(2, 3)}) // [1, d, 1, 1]
	x = b.op("Add", []string{x, cond}, nil)

	// Mid-block attention over spatial tokens: [1, C, H', W'] → [1, HW, C].
	shp := b.op("Shape", []string{x}, nil)
	oneV := b.constInts("o1", []int64{1}, []int64{1})
	cV := b.constInts("cc", []int64{1}, []int64{c3})
	negOne := b.constInts("n1", []int64{1}, []int64{-1})
	t1 := b.op("Concat", []string{oneV, cV, negOne}, map[string]graph.AttrValue{"axis": graph.IntAttr(0)})
	flat := b.op("Reshape", []string{x, t1}, nil) // [1, C, HW]
	tokens := b.op("Transpose", []string{flat}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 2, 1)}) // [1, HW, C]
	tokens = b.attention(tokens, d, 4)
	backT := b.op("Transpose", []string{tokens}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 2, 1)}) // [1, C, HW]
	hvec := b.op("Slice", []string{shp, b.constInts("h2", []int64{1}, []int64{2}),
		b.constInts("h3", []int64{1}, []int64{3}), b.constInts("h0", []int64{1}, []int64{0})}, nil)
	t2 := b.op("Concat", []string{oneV, cV, hvec, negOne}, map[string]graph.AttrValue{"axis": graph.IntAttr(0)})
	spat := b.op("Reshape", []string{backT, t2}, nil) // [1, C, H', W']

	out := b.groupNorm(spat, c3, 8)
	out = b.op("Silu", []string{out}, nil)
	out = b.conv(out, c3, 8, 3, 1, 1, "") // latent moments
	b.g.AddOutput(out)
	return b.g
}

// buildSAM: SegmentAnything — ViT image encoder over a dynamic patch
// grid, a prompt-token branch, two-way cross-attention, and an upsampled
// mask head (Resize: ISVDOS).
func buildSAM() *graph.Graph {
	const (
		d      = 32
		heads  = 4
		vocab  = 32
		prompt = 4
	)
	b := newCtx("sam")
	b.imageInput("image", 3)
	b.g.AddInput("prompts", tensor.Int64, lattice.FromInts(1, prompt))

	// Patch embedding: conv k8 s8 → [1, d, H/8, W/8].
	pe := b.conv("image", 3, d, 8, 8, 0, "")
	shp := b.op("Shape", []string{pe}, nil)
	oneV := b.constInts("o1", []int64{1}, []int64{1})
	dV := b.constInts("dv", []int64{1}, []int64{d})
	negOne := b.constInts("n1", []int64{1}, []int64{-1})
	t1 := b.op("Concat", []string{oneV, dV, negOne}, map[string]graph.AttrValue{"axis": graph.IntAttr(0)})
	flat := b.op("Reshape", []string{pe, t1}, nil) // [1, d, N]
	toks := b.op("Transpose", []string{flat}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 2, 1)}) // [1, N, d]
	toks = b.attention(toks, d, heads)
	toks = b.ffn(toks, d, d*4)
	toks = b.attention(toks, d, heads)

	// Prompt branch + cross-attention (queries = prompt tokens).
	pemb := b.weight("pemb", 0.1, vocab, d)
	pt := b.op("Gather", []string{pemb, "prompts"}, nil) // [1, P, d]
	q := b.linear(pt, d, d, "")
	k := b.linear(toks, d, d, "")
	v := b.linear(toks, d, d, "")
	kt := b.op("Transpose", []string{k}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 2, 1)})
	att := b.op("MatMul", []string{q, kt}, nil) // [1, P, N]
	att = b.op("Softmax", []string{att}, nil)
	ctxV := b.op("MatMul", []string{att, v}, nil) // [1, P, d]
	maskTok := b.linear(ctxV, d, d, "Relu")

	// Mask head: token × image-embedding dot product → [1, P, N] →
	// reshape to the patch grid → upsample ×4 (Resize, ISVDOS).
	imgT := b.op("Transpose", []string{toks}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 2, 1)}) // [1, d, N]
	logitsFlat := b.op("MatMul", []string{maskTok, imgT}, nil) // [1, P, N]
	pV := b.constInts("pv", []int64{1}, []int64{prompt})
	hvec := b.op("Slice", []string{shp, b.constInts("h2", []int64{1}, []int64{2}),
		b.constInts("h3", []int64{1}, []int64{3}), b.constInts("h0", []int64{1}, []int64{0})}, nil)
	t2 := b.op("Concat", []string{oneV, pV, hvec, negOne}, map[string]graph.AttrValue{"axis": graph.IntAttr(0)})
	grid := b.op("Reshape", []string{logitsFlat, t2}, nil) // [1, P, H', W']
	scales := b.fresh("scales")
	b.g.AddInitializer(scales, tensor.FromFloats([]int64{4}, []float32{1, 1, 4, 4}))
	up := b.g.Op("Resize", b.fresh("Resize"), []string{grid, "", scales}, []string{b.fresh("v")}, map[string]graph.AttrValue{})
	mask := b.op("Sigmoid", []string{up.Outputs[0]}, nil)
	b.g.AddOutput(mask)
	return b.g
}

// buildYOLOv6: single-stage detector — RepVGG-style backbone, SPPF neck,
// two detection scales (shape dynamism: image side 224–640, ×32).
func buildYOLOv6() *graph.Graph {
	const (
		c1, c2, c3 = 8, 16, 32
		preds      = 16 // 4 box + 1 obj + 11 classes
	)
	b := newCtx("yolov6")
	b.imageInput("image", 3)

	repBlock := func(x string, c int64) string {
		a := b.conv(x, c, c, 3, 1, 1, "")
		bb := b.conv(x, c, c, 1, 1, 0, "")
		s := b.op("Add", []string{a, bb}, nil)
		return b.op("Relu", []string{s}, nil)
	}

	x := b.conv("image", 3, c1, 3, 2, 1, "Relu") // /2
	x = b.conv(x, c1, c2, 3, 2, 1, "Relu")       // /4
	x = repBlock(x, c2)
	p3 := b.conv(x, c2, c3, 3, 2, 1, "Relu") // /8
	p3 = repBlock(p3, c3)
	p4 := b.conv(p3, c3, c3, 3, 2, 1, "Relu") // /16
	p4 = repBlock(p4, c3)

	// SPPF on the deepest scale.
	mp := func(x string) string {
		return b.op("MaxPool", []string{x}, map[string]graph.AttrValue{
			"kernel_shape": graph.IntsAttr(5, 5), "strides": graph.IntsAttr(1, 1),
			"pads": graph.IntsAttr(2, 2, 2, 2)})
	}
	m1 := mp(p4)
	m2 := mp(m1)
	m3 := mp(m2)
	spp := b.op("Concat", []string{p4, m1, m2, m3}, map[string]graph.AttrValue{"axis": graph.IntAttr(1)})
	neck := b.conv(spp, c3*4, c3, 1, 1, 0, "Relu")

	head := func(x string, cin int64) string {
		h := b.conv(x, cin, c3, 3, 1, 1, "Relu")
		raw := b.conv(h, c3, preds, 1, 1, 0, "")
		// Flatten predictions: [1, preds, h, w] → [1, preds, -1] → [1, -1, preds].
		oneV := b.constInts("o", []int64{1}, []int64{1})
		pV := b.constInts("p", []int64{1}, []int64{preds})
		negOne := b.constInts("n", []int64{1}, []int64{-1})
		t := b.op("Concat", []string{oneV, pV, negOne}, map[string]graph.AttrValue{"axis": graph.IntAttr(0)})
		flat := b.op("Reshape", []string{raw, t}, nil)
		return b.op("Transpose", []string{flat}, map[string]graph.AttrValue{
			"perm": graph.IntsAttr(0, 2, 1)})
	}
	o3 := head(p3, c3)
	o4 := head(neck, c3)
	all := b.op("Concat", []string{o3, o4}, map[string]graph.AttrValue{"axis": graph.IntAttr(1)})
	out := b.op("Sigmoid", []string{all}, nil)
	b.g.AddOutput(out)
	return b.g
}

func init() {
	register(&Builder{
		Name: "CodeBERT", Paper: "[16]", Dynamism: "S", Kind: KindText,
		MinSize: 32, MaxSize: 384, SizeStep: 1,
		Build: buildCodeBERT,
		Spec: func(size int64, _ float32) []InputSpec {
			return []InputSpec{tokenSpec("tokens", size, 128)}
		},
	})
	register(&Builder{
		Name: "Conformer", Paper: "[20]", Dynamism: "S", Kind: KindAudio,
		MinSize: 32, MaxSize: 384, SizeStep: 1,
		Build: buildConformer,
		Spec: func(size int64, _ float32) []InputSpec {
			return []InputSpec{{Name: "audio", DType: tensor.Float32, Shape: []int64{1, size, 16}, Fill: FillNormal}}
		},
	})
	register(&Builder{
		Name: "StableDiffusion", Paper: "[56]", Dynamism: "S", Kind: KindTextImage,
		MinSize: 64, MaxSize: 224, SizeStep: 8,
		Build: buildSDE,
		Spec: func(size int64, _ float32) []InputSpec {
			return []InputSpec{imageSpec(size), tokenSpec("tokens", 16, 64)}
		},
	})
	register(&Builder{
		Name: "SegmentAnything", Paper: "[29]", Dynamism: "S", Kind: KindTextImage,
		MinSize: 64, MaxSize: 224, SizeStep: 8,
		Build: buildSAM,
		Spec: func(size int64, _ float32) []InputSpec {
			return []InputSpec{imageSpec(size), tokenSpec("prompts", 4, 32)}
		},
	})
	register(&Builder{
		Name: "YOLO-V6", Paper: "[36]", Dynamism: "S", Kind: KindImage,
		MinSize: 224, MaxSize: 640, SizeStep: 32,
		Build: buildYOLOv6,
		Spec: func(size int64, _ float32) []InputSpec {
			return []InputSpec{imageSpec(size)}
		},
	})
}
