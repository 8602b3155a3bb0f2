package kernels

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

type conv2dArgs struct {
	n, cin, h, w           int64
	cout, cinPerGroup      int64
	kh, kw                 int64
	strideH, strideW       int64
	padT, padL, padB, padR int64
	dilH, dilW, group      int64
	outH, outW             int64
}

func convArgsFor(n *graph.Node, x, w *tensor.Tensor) (conv2dArgs, error) {
	var a conv2dArgs
	if x.Rank() != 4 || w.Rank() != 4 {
		return a, fmt.Errorf("Conv: only 2-D conv supported (x rank %d, w rank %d)", x.Rank(), w.Rank())
	}
	a.n, a.cin, a.h, a.w = x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	a.cout, a.cinPerGroup, a.kh, a.kw = w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	strides := n.AttrInts("strides", []int64{1, 1})
	pads := n.AttrInts("pads", []int64{0, 0, 0, 0})
	dil := n.AttrInts("dilations", []int64{1, 1})
	if err := checkAttrLens(n, 2, n.AttrInts("kernel_shape", nil), strides, pads, dil); err != nil {
		return a, err
	}
	a.strideH, a.strideW = strides[0], strides[1]
	a.padT, a.padL, a.padB, a.padR = pads[0], pads[1], pads[2], pads[3]
	a.dilH, a.dilW = dil[0], dil[1]
	if a.strideH < 1 || a.strideW < 1 || a.dilH < 1 || a.dilW < 1 {
		return a, fmt.Errorf("Conv: non-positive strides %dx%d or dilations %dx%d", a.strideH, a.strideW, a.dilH, a.dilW)
	}
	a.group = n.AttrInt("group", 1)
	if a.group < 1 || a.cout%a.group != 0 {
		return a, fmt.Errorf("Conv: cout %d not divisible by group %d", a.cout, a.group)
	}
	if a.cin != a.cinPerGroup*a.group {
		return a, fmt.Errorf("Conv: cin %d != %d*%d", a.cin, a.cinPerGroup, a.group)
	}
	effH := (a.kh-1)*a.dilH + 1
	effW := (a.kw-1)*a.dilW + 1
	a.outH = (a.h+a.padT+a.padB-effH)/a.strideH + 1
	a.outW = (a.w+a.padL+a.padR-effW)/a.strideW + 1
	if a.outH <= 0 || a.outW <= 0 {
		return a, fmt.Errorf("Conv: non-positive output %dx%d", a.outH, a.outW)
	}
	return a, nil
}

// convKernel lowers every convolution to im2col + GEMM; the filter may
// be float32 or packed. A fused Conv's activation attribute
// (activationRow) finishes each output block after its bias.
func convKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "Conv"); err != nil {
		return nil, err
	}
	x, w := in[0], in[1]
	if x.DType != tensor.Float32 || (w.DType != tensor.Float32 && !w.DType.IsQuantized()) {
		return nil, fmt.Errorf("Conv: unsupported dtypes %v,%v", x.DType, w.DType)
	}
	a, err := convArgsFor(n, x, w)
	if err != nil {
		return nil, err
	}
	act, err := activationRow(n)
	if err != nil {
		return nil, err
	}
	var biasF []float32
	if len(in) > 2 && in[2] != nil {
		bias := in[2]
		if bias.DType != tensor.Float32 || bias.Len() != a.cout {
			return nil, fmt.Errorf("Conv: bias %v%v, want %d float32 values", bias.DType, bias.Shape, a.cout)
		}
		biasF = bias.F
	}
	if k := a.cinPerGroup * a.kh * a.kw; w.DType.IsQuantized() && (w.Q.Rows != a.cout || w.Q.Cols != k) {
		return nil, fmt.Errorf("Conv: quantized weight grid %dx%d does not match [%d,%d]",
			w.Q.Rows, w.Q.Cols, a.cout, k)
	}
	out := ctx.Out(0, tensor.Float32, a.n, a.cout, a.outH, a.outW)
	if out.Len() > 0 {
		convIm2col(x, w, biasF, act, out, a, ctx)
	}
	return []*tensor.Tensor{out}, nil
}

// panelRows is the number of whole output rows one im2col panel
// unfolds: as many as fit a gemmNC-wide GEMM block, and at least one.
func (a *conv2dArgs) panelRows() int64 {
	return min(a.outH, max(1, gemmNC/a.outW))
}

// panels is the number of panels that cover one output plane.
func (a *conv2dArgs) panels() int64 {
	rows := a.panelRows()
	return (a.outH + rows - 1) / rows
}

// convIm2col lowers convolution to GEMM a panel at a time: per (batch,
// group), each block of panelRows output rows is unfolded into a
// [cinPerGroup*kh*kw, width] scratch and multiplied by the weight matrix
// [coutPerGroup, cinPerGroup*kh*kw] straight into those rows of the
// output. The intra-op budget stripes the (batch, group, panel) units;
// a unit's arithmetic does not depend on its stripe, so the result is
// bit-identical for any budget. The scratch is taken from ctx once,
// one disjoint part per stripe.
func convIm2col(x, w *tensor.Tensor, bias []float32, act func(o, x []float32), out *tensor.Tensor, a conv2dArgs, ctx *Ctx) {
	units := a.n * a.group * a.panels()
	threads := ctx.threads()
	grain := rowGrain(a.cout / a.group * a.cinPerGroup * a.kh * a.kw * a.panelRows() * a.outW)
	count, chunk := stripes(threads, units, grain)
	per := a.scratchFloats(w.DType.IsQuantized())
	scratch := ctx.Scratch(count * per)
	if count <= 1 {
		// convStripes' closure captures a, which is past the size a
		// closure holds by value: mentioning it here would move a to the
		// heap on every call, striped or not.
		convPanels(x, w, bias, act, out, a, 0, units, scratch)
		return
	}
	convStripes(x, w, bias, act, out, a, threads, units, grain, chunk, per, scratch)
}

// scratchFloats is the scratch one stripe of convPanels works in: the
// im2col panel and, for a packed filter, the filter rows GemmQuantLHS
// dequantizes (up to four at a time).
func (a *conv2dArgs) scratchFloats(quantized bool) int64 {
	k := a.cinPerGroup * a.kh * a.kw
	n := k * a.panelRows() * a.outW
	if quantized {
		n += min(4, a.cout/a.group) * k
	}
	return n
}

func convStripes(x, w *tensor.Tensor, bias []float32, act func(o, x []float32), out *tensor.Tensor, a conv2dArgs, threads int,
	units, grain, chunk, per int64, scratch []float32) {
	ParallelForGrain(threads, units, grain, func(lo, hi int64) {
		s := lo / chunk
		convPanels(x, w, bias, act, out, a, lo, hi, scratch[s*per:(s+1)*per])
	})
}

// convPanels computes units [lo, hi) of the (batch, group, panel) space
// in one stripe's scratch (see scratchFloats). The filter may be float32
// or packed; the bias, then the activation act (nil for none), go on
// while the panel's output block is still in cache.
func convPanels(x, w *tensor.Tensor, bias []float32, act func(o, x []float32), out *tensor.Tensor, a conv2dArgs,
	lo, hi int64, scratch []float32) {
	coutPerGroup := a.cout / a.group
	k := a.cinPerGroup * a.kh * a.kw
	cols := a.outH * a.outW
	rows, panels := a.panelRows(), a.panels()
	panel, wRows := scratch[:k*rows*a.outW], scratch[k*rows*a.outW:]
	for u := lo; u < hi; u++ {
		b, g, oh0 := u/panels/a.group, u/panels%a.group, u%panels*rows
		oh1 := min(oh0+rows, a.outH)
		width := (oh1 - oh0) * a.outW
		im2colPanel(x.F, panel, &a, b, g, oh0, oh1)
		// GEMM: [coutPerGroup, k] × [k, width], C rows a full plane apart.
		rowLo := g * coutPerGroup
		c := out.F[(b*a.cout+rowLo)*cols+oh0*a.outW:]
		if w.DType.IsQuantized() {
			GemmQuantLHS(w.Q, rowLo, rowLo+coutPerGroup, wRows, panel, width, c, cols, width)
		} else {
			gemmBlock(w.F[rowLo*k:(rowLo+coutPerGroup)*k], panel, width, c, cols, coutPerGroup, k, width, epilogue{})
		}
		if bias == nil && act == nil {
			continue
		}
		for oc := int64(0); oc < coutPerGroup; oc++ {
			seg := c[oc*cols : oc*cols+width]
			if bias != nil {
				addBias(seg, bias[rowLo+oc])
			}
			if act != nil {
				act(seg, seg)
			}
		}
	}
}

// addBias adds bv to every element of seg: Add's vector-scalar loop
// (addVec.vs, where there is one) over the longest multiple of vecWidth
// elements, the scalar add over the rest. Both are one IEEE add of bv
// per element, so the sum does not depend on which one ran.
func addBias(seg []float32, bv float32) {
	n := 0
	if addVec != nil {
		n = len(seg) &^ (vecWidth - 1)
		addVec.vs(seg[:n], seg[:n], bv)
	}
	for j := n; j < len(seg); j++ {
		seg[j] += bv
	}
}

// validSpan returns the span [lo, hi) of output positions o in [0, n)
// whose input position o*stride+off lies in [0, extent).
func validSpan(off, stride, extent, n int64) (lo, hi int64) {
	lo = min(n, max(0, (-off+stride-1)/stride))
	hi = min(n, max(lo, (extent-off+stride-1)/stride))
	return lo, hi
}

// im2colPanel unfolds output rows [oh0, oh1) of one (batch, group) pair
// into panel [cinPerGroup*kh*kw, (oh1-oh0)*outW], writing every one of
// its elements: the panel is reused scratch. A filter tap reads
// inside the image over one span of oh and one span of ow, so a patch
// row is a cleared block above, a cleared block below and, per row in
// between, a cleared fringe either side of the values the tap reads —
// no bounds test per element. Those values are, for all the rows of
// the tap at once, one copy at stride 1 when the output is as wide as
// the input ("same" padding: each row lies one fixed distance from its
// source) and one gather2Rows at stride 2; otherwise, per row, one copy
// (stride 1) or one strided read.
func im2colPanel(x, panel []float32, a *conv2dArgs, b, g, oh0, oh1 int64) {
	width := (oh1 - oh0) * a.outW
	runs := a.strideH == 1 && a.strideW == 1 && a.outW == a.w
	row := int64(0)
	for ic := int64(0); ic < a.cinPerGroup; ic++ {
		base := (b*a.cin + g*a.cinPerGroup + ic) * a.h * a.w
		for kh := int64(0); kh < a.kh; kh++ {
			ih0 := kh*a.dilH - a.padT
			ohLo, ohHi := validSpan(ih0, a.strideH, a.h, a.outH)
			ohLo, ohHi = min(max(ohLo, oh0), oh1), min(max(ohHi, oh0), oh1)
			for kw := int64(0); kw < a.kw; kw++ {
				dst := panel[row*width : (row+1)*width]
				row++
				iw0 := kw*a.dilW - a.padL
				owLo, owHi := validSpan(iw0, a.strideW, a.w, a.outW)
				if owLo == owHi || ohLo >= ohHi {
					clear(dst)
					continue
				}
				clear(dst[:(ohLo-oh0)*a.outW])
				clear(dst[(ohHi-oh0)*a.outW:])
				rows := dst[(ohLo-oh0)*a.outW : (ohHi-oh0)*a.outW]
				src := base + (ohLo*a.strideH+ih0)*a.w + owLo*a.strideW + iw0
				switch {
				case runs:
					// The copy fills the fringes between rows from the
					// neighbouring rows; clearFringes clears them after.
					n := int64(len(rows)) - owLo - (a.outW - owHi)
					copy(rows[owLo:owLo+n], x[src:src+n])
				case a.strideW == 2:
					gather2Rows(rows[owLo:], a.outW, x[src:], a.strideH*a.w, owHi-owLo, ohHi-ohLo)
				default:
					for oh := ohLo; oh < ohHi; oh++ {
						seg := dst[(oh-oh0)*a.outW : (oh-oh0+1)*a.outW]
						in := x[base+(oh*a.strideH+ih0)*a.w:][:a.w]
						// A short interior (Conformer's [L/4, 1] plane has one
						// element) costs more as a copy call than as the loop.
						if a.strideW == 1 && owHi-owLo >= 8 {
							copy(seg[owLo:owHi], in[owLo+iw0:])
							continue
						}
						for ow := owLo; ow < owHi; ow++ {
							seg[ow] = in[ow*a.strideW+iw0]
						}
					}
				}
				clearFringes(rows, a.outW, owLo, owHi)
			}
		}
	}
}

// clearFringes zeroes columns [0, lo) and [hi, w) of every w-wide row of
// rows.
func clearFringes(rows []float32, w, lo, hi int64) {
	if lo == 0 && hi == w {
		return
	}
	for r := int64(0); r < int64(len(rows)); r += w {
		seg := rows[r : r+w]
		for i := range lo {
			seg[i] = 0
		}
		for i := hi; i < w; i++ {
			seg[i] = 0
		}
	}
}

// gather2RowsGo sets dst[r·dpitch+i] = src[r·spitch+2·i] for i < n and
// r < rows: im2colPanel's stride-2 rows of one filter tap.
func gather2RowsGo(dst []float32, dpitch int64, src []float32, spitch, n, rows int64) {
	for r := int64(0); r < rows; r++ {
		d, s := dst[r*dpitch:][:n], src[r*spitch:]
		for i := range d {
			d[i] = s[2*i]
		}
	}
}

func poolKernel(avg bool) Kernel {
	return func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, n.OpType); err != nil {
			return nil, err
		}
		x := in[0]
		if x.DType != tensor.Float32 || x.Rank() != 4 {
			return nil, fmt.Errorf("%s: want a rank-4 float32 input, got %v rank %d", n.OpType, x.DType, x.Rank())
		}
		kernel := n.AttrInts("kernel_shape", nil)
		strides := n.AttrInts("strides", []int64{1, 1})
		pads := n.AttrInts("pads", []int64{0, 0, 0, 0})
		if kernel == nil {
			return nil, fmt.Errorf("%s %s: missing kernel_shape", n.OpType, n.Name)
		}
		if err := checkAttrLens(n, 2, kernel, strides, pads, nil); err != nil {
			return nil, err
		}
		if strides[0] < 1 || strides[1] < 1 {
			return nil, fmt.Errorf("%s: non-positive strides %dx%d", n.OpType, strides[0], strides[1])
		}
		N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
		outH := (H+pads[0]+pads[2]-kernel[0])/strides[0] + 1
		outW := (W+pads[1]+pads[3]-kernel[1])/strides[1] + 1
		if outH <= 0 || outW <= 0 {
			return nil, fmt.Errorf("%s: non-positive output %dx%d", n.OpType, outH, outW)
		}
		out := ctx.Out(0, tensor.Float32, N, C, outH, outW)
		p := poolWindows{kh: kernel[0], kw: kernel[1], sh: strides[0], sw: strides[1],
			padT: pads[0], padL: pads[1], h: H, w: W, outH: outH, outW: outW}
		var scratch []float32
		if !avg {
			scratch = ctx.Scratch(p.maxScratch())
		}
		for c := int64(0); c < N*C; c++ {
			src, dst := x.F[c*H*W:(c+1)*H*W], out.F[c*outH*outW:(c+1)*outH*outW]
			if avg {
				avgPoolPlane(src, dst, &p)
			} else {
				maxPoolPlane(src, dst, scratch, &p)
			}
		}
		return []*tensor.Tensor{out}, nil
	}
}

// poolWindows is the window geometry of a 2-D pool over one H×W plane.
type poolWindows struct {
	kh, kw, sh, sw, padT, padL int64
	h, w, outH, outW           int64
}

// clip returns the input rows [ih0, ih1) and columns [iw0, iw1) of
// output (oh, ow)'s window that lie inside the plane; a window wholly in
// the padding gets an empty range.
func (p *poolWindows) clip(oh, ow int64) (ih0, ih1, iw0, iw1 int64) {
	ih, iw := oh*p.sh-p.padT, ow*p.sw-p.padL
	ih0, iw0 = min(max(0, ih), p.h), min(max(0, iw), p.w)
	return ih0, max(ih0, min(p.h, ih+p.kh)), iw0, max(iw0, min(p.w, iw+p.kw))
}

// maxPoolPlane writes each window's largest in-bounds value, taken in
// row-major tap order by v > best from −Inf: a NaN is never taken, of
// equal values the first stays (so −0 before +0 gives −0), and an
// all-padding window gives −Inf.
//
// It folds separably, with the same rule. The row pass folds each input
// row's kw taps per output column, left to right, over a copy of the row
// with −Inf margins; the column pass folds each output's rows of those
// results in ascending order. A tap outside the plane is −Inf there,
// which is never taken, so it counts as skipped. The first tap in
// row-major order that holds the window's maximum is the first of its
// row to hold it, in the first row whose fold reaches it, so both
// passes keep the tap the one loop keeps. The scratch is maxScratch
// floats: the padded row, then H rows of row-pass results.
func maxPoolPlane(x, out, scratch []float32, p *poolWindows) {
	if p.kw < 1 { // every window is empty
		fillNegInf(out)
		return
	}
	width := (p.outW-1)*p.sw + p.kw + 1
	padded, rm := scratch[:width], scratch[width:p.maxScratch()]
	// padded[j] holds the row's element j − padL; the rest are −Inf.
	lo := min(max(p.padL, 0), width)
	hi := min(max(p.padL+p.w, lo), width)
	fillNegInf(padded[:lo])
	fillNegInf(padded[hi:])
	for ih := int64(0); ih < p.h; ih++ {
		if lo < hi {
			copy(padded[lo:hi], x[ih*p.w+lo-p.padL:])
		}
		dst := rm[ih*p.outW : (ih+1)*p.outW]
		for ow := maxTaps(dst, padded, p.sw, p.kw); ow < p.outW; ow++ {
			dst[ow] = maxRowGo(padded[ow*p.sw : ow*p.sw+p.kw])
		}
	}
	for oh := int64(0); oh < p.outH; oh++ {
		ih0, ih1, _, _ := p.clip(oh, 0)
		dst := out[oh*p.outW : (oh+1)*p.outW]
		if ih0 == ih1 {
			fillNegInf(dst)
			continue
		}
		// The row-pass results hold no NaN, so the first row's fold from
		// −Inf is a copy.
		copy(dst, rm[ih0*p.outW:])
		for ih := ih0 + 1; ih < ih1; ih++ {
			maxFold(dst, rm[ih*p.outW:(ih+1)*p.outW])
		}
	}
}

// maxScratch is the scratch maxPoolPlane works in: one padded input row
// of (outW−1)·sw + kw floats plus one past it for the stride-2 body's
// last load, and H rows of outW row-pass results.
func (p *poolWindows) maxScratch() int64 {
	return max(0, (p.outW-1)*p.sw+p.kw+1) + p.h*p.outW
}

// avgPoolPlane writes each window's mean over its in-bounds values (the
// padding is not counted): the sum from +0 in row-major tap order,
// divided by the count. An all-padding window gives 0.
func avgPoolPlane(x, out []float32, p *poolWindows) {
	for oh := int64(0); oh < p.outH; oh++ {
		for ow := int64(0); ow < p.outW; ow++ {
			ih0, ih1, iw0, iw1 := p.clip(oh, ow)
			var acc float32
			for ih := ih0; ih < ih1; ih++ {
				for _, v := range x[ih*p.w+iw0 : ih*p.w+iw1] {
					acc += v
				}
			}
			var res float32
			if count := (ih1 - ih0) * (iw1 - iw0); count > 0 {
				res = acc / float32(count)
			}
			out[oh*p.outW+ow] = res
		}
	}
}

func globalPoolKernel(avg bool) Kernel {
	return func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, n.OpType); err != nil {
			return nil, err
		}
		x := in[0]
		if x.Rank() < 3 {
			return nil, fmt.Errorf("%s: rank %d", n.OpType, x.Rank())
		}
		N, C := x.Shape[0], x.Shape[1]
		plane := tensor.NumElems(x.Shape[2:])
		outShape := append([]int64{N, C}, make([]int64, x.Rank()-2)...)
		for i := 2; i < x.Rank(); i++ {
			outShape[i] = 1
		}
		out := ctx.Out(0, tensor.Float32, outShape...)
		if avg {
			meanPlanes(out.F, x.F, plane)
			return []*tensor.Tensor{out}, nil
		}
		for b := int64(0); b < N; b++ {
			for c := int64(0); c < C; c++ {
				base := (b*C + c) * plane
				best := float32(math.Inf(-1))
				for i := int64(0); i < plane; i++ {
					if x.F[base+i] > best {
						best = x.F[base+i]
					}
				}
				out.F[b*C+c] = best
			}
		}
		return []*tensor.Tensor{out}, nil
	}
}

// meanPlanes writes the mean of plane i of x, its plane values from
// i·plane on, to dst[i]: a float32 sum in ascending order, over plane.
// Four planes go at a time, their sums interleaved in one loop so that
// the additions of different planes overlap where one plane's would wait
// on each other (as rowStats4 does); each sum keeps its own order.
func meanPlanes(dst, x []float32, plane int64) {
	n := float32(plane)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0 := x[int64(i)*plane : int64(i+1)*plane]
		r1 := x[int64(i+1)*plane : int64(i+2)*plane][:len(r0)]
		r2 := x[int64(i+2)*plane : int64(i+3)*plane][:len(r0)]
		r3 := x[int64(i+3)*plane : int64(i+4)*plane][:len(r0)]
		var s0, s1, s2, s3 float32
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0/n, s1/n, s2/n, s3/n
	}
	for ; i < len(dst); i++ {
		var s float32
		for _, v := range x[int64(i)*plane : int64(i+1)*plane] {
			s += v
		}
		dst[i] = s / n
	}
}

// convAttrs extracts kernel/stride/pad/dilation attributes with ONNX
// defaults for a 2-D convolution or pooling node.
type convAttrs struct {
	kernel    []int64
	strides   []int64
	pads      []int64 // [top, left, bottom, right] (begin..., end...)
	dilations []int64
	group     int64
}

// AttrLenError reports a Conv or pool attribute whose length does not
// fit the input's spatial rank: pads holds two values per spatial axis,
// kernel_shape, strides and dilations one.
type AttrLenError struct {
	Op, Node, Attr string
	Len, Want      int
}

func (e *AttrLenError) Error() string {
	return fmt.Sprintf("%s %s: want %d %s values, got %d", e.Op, e.Node, e.Want, e.Attr, e.Len)
}

// checkAttrLens is the one length rule for a Conv's or pool's
// attributes, shared by the transfer functions and the kernels: each of
// kernel_shape, strides, pads and dilations that is present (non-nil)
// // holds one value per spatial axis, pads two. It keeps no slice, not
// even in the error, so the kernels' default literals stay off the heap.
func checkAttrLens(n *graph.Node, spatial int, kernel, strides, pads, dilations []int64) error {
	bad := func(attr string, v []int64, want int) error {
		return &AttrLenError{Op: n.OpType, Node: n.Name, Attr: attr, Len: len(v), Want: want}
	}
	switch {
	case kernel != nil && len(kernel) != spatial:
		return bad("kernel_shape", kernel, spatial)
	case strides != nil && len(strides) != spatial:
		return bad("strides", strides, spatial)
	case pads != nil && len(pads) != 2*spatial:
		return bad("pads", pads, 2*spatial)
	case dilations != nil && len(dilations) != spatial:
		return bad("dilations", dilations, spatial)
	}
	return nil
}

func getConvAttrs(n *graph.Node, spatial int) (convAttrs, error) {
	a := convAttrs{
		kernel:    n.AttrInts("kernel_shape", nil),
		strides:   n.AttrInts("strides", nil),
		pads:      n.AttrInts("pads", nil),
		dilations: n.AttrInts("dilations", nil),
		group:     n.AttrInt("group", 1),
	}
	if err := checkAttrLens(n, spatial, a.kernel, a.strides, a.pads, a.dilations); err != nil {
		return a, err
	}
	if a.strides == nil {
		a.strides = make([]int64, spatial)
		for i := range a.strides {
			a.strides[i] = 1
		}
	}
	if a.dilations == nil {
		a.dilations = make([]int64, spatial)
		for i := range a.dilations {
			a.dilations[i] = 1
		}
	}
	if a.pads == nil {
		a.pads = make([]int64, 2*spatial)
	}
	return a, nil
}

// convKernelShape is a Conv's spatial kernel extents: the kernel_shape
// attribute, else the weight's constant trailing dims (false when one
// is unknown).
func convKernelShape(a convAttrs, w lattice.Shape, spatial int) ([]int64, bool) {
	if a.kernel != nil {
		return a.kernel, true
	}
	kernel := make([]int64, spatial)
	for i := range kernel {
		kv, ok := w.Dims[2+i].Const()
		if !ok {
			return nil, false
		}
		kernel[i] = kv
	}
	return kernel, true
}

func convForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	x := ctx.InShape(0)
	w := ctx.InShape(1)
	if x.Kind != lattice.ShapeRanked || w.Kind != lattice.ShapeRanked {
		if x.IsNAC() || w.IsNAC() {
			out[0].Shape = lattice.NACShape()
		}
		return out, nil
	}
	spatial := len(x.Dims) - 2
	if spatial < 1 || len(w.Dims) != len(x.Dims) {
		return out, fmt.Errorf("Conv %s: rank mismatch x=%v w=%v", ctx.Node.Name, x, w)
	}
	a, err := getConvAttrs(ctx.Node, spatial)
	if err != nil {
		return out, err
	}
	if _, err := activationRow(ctx.Node); err != nil {
		return out, err
	}
	kernel, ok := convKernelShape(a, w, spatial)
	if !ok {
		return out, nil // kernel extent unknown
	}
	dims := make([]lattice.Dim, len(x.Dims))
	dims[0] = x.Dims[0]
	dims[1] = w.Dims[0] // output channels = weight dim 0
	for i := 0; i < spatial; i++ {
		dims[2+i] = convSpatialOut(x.Dims[2+i], kernel[i], a.strides[i], a.dilations[i], a.pads[i], a.pads[spatial+i])
	}
	out[0].Shape = lattice.Ranked(dims...)
	return out, nil
}

func convBackward(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	o := ctx.Out[0].Shape
	w := ctx.InShape(1)
	if o.Kind != lattice.ShapeRanked || w.Kind != lattice.ShapeRanked {
		return in, nil
	}
	spatial := len(o.Dims) - 2
	if spatial < 1 {
		return in, nil
	}
	a, err := getConvAttrs(ctx.Node, spatial)
	if err != nil {
		return in, err
	}
	kernel, ok := convKernelShape(a, w, spatial)
	if !ok {
		return in, nil
	}
	dims := make([]lattice.Dim, len(o.Dims))
	dims[0] = o.Dims[0]
	dims[1] = lattice.Undef() // input channels come from the weight, dim 1 * group
	if cin, ok := w.Dims[1].Const(); ok {
		dims[1] = lattice.FromInt(cin * a.group)
	}
	for i := 0; i < spatial; i++ {
		if a.strides[i] != 1 {
			return in, nil // stride >1 floor-division is not invertible
		}
		dims[2+i] = convSpatialIn(o.Dims[2+i], kernel[i], a.strides[i], a.dilations[i], a.pads[i], a.pads[spatial+i])
	}
	in[0].Shape = lattice.Ranked(dims...)
	return in, nil
}

func convCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	if len(in) < 2 || len(out) < 1 {
		return DefaultCost(node, in, out)
	}
	w := in[1]
	kvol := tensor.NumElems(w[2:])
	flops := 2 * tensor.NumElems(out[0]) * w[1] * kvol
	return flops, ioBytes(in, out[0])
}

// ioBytes is the float32 traffic of reading every input and writing out.
func ioBytes(in [][]int64, out []int64) int64 {
	bytes := tensor.NumElems(out) * 4
	for _, s := range in {
		bytes += tensor.NumElems(s) * 4
	}
	return bytes
}

func poolForward(global bool) ForwardFn {
	return func(ctx *InferCtx) ([]lattice.Info, error) {
		out := nOutputs(ctx.Node)
		x := ctx.InShape(0)
		if x.Kind != lattice.ShapeRanked {
			out[0].Shape = x
			return out, nil
		}
		dims := make([]lattice.Dim, len(x.Dims))
		copy(dims, x.Dims)
		spatial := len(x.Dims) - 2
		if global {
			for i := 0; i < spatial; i++ {
				dims[2+i] = lattice.FromInt(1)
			}
			out[0].Shape = lattice.Ranked(dims...)
			return out, nil
		}
		a, err := getConvAttrs(ctx.Node, spatial)
		if err != nil {
			return out, err
		}
		if a.kernel == nil {
			return out, fmt.Errorf("%s %s: missing kernel_shape", ctx.Node.OpType, ctx.Node.Name)
		}
		for i := 0; i < spatial; i++ {
			dims[2+i] = convSpatialOut(x.Dims[2+i], a.kernel[i], a.strides[i], a.dilations[i], a.pads[i], a.pads[spatial+i])
		}
		out[0].Shape = lattice.Ranked(dims...)
		return out, nil
	}
}

// poolCost is a window's reads per output element; a global pool's
// window is the whole plane.
func poolCost(global bool) CostFn {
	return func(node *graph.Node, in, out [][]int64) (int64, int64) {
		if len(out) < 1 {
			return DefaultCost(node, in, out)
		}
		kvol := int64(1)
		for _, k := range node.AttrInts("kernel_shape", nil) {
			kvol *= k
		}
		if global && len(in) > 0 && len(in[0]) >= 3 {
			kvol = tensor.NumElems(in[0][2:])
		}
		return tensor.NumElems(out[0]) * kvol, ioBytes(in, out[0])
	}
}

func init() {
	Register(&Def{Type: "Conv", Class: ISDOS, Forward: convForward, Backward: convBackward, Cost: convCost, Kernel: convKernel})
	Register(&Def{Type: "MaxPool", Class: ISDOS, Forward: poolForward(false), Cost: poolCost(false), Kernel: poolKernel(false)})
	Register(&Def{Type: "AveragePool", Class: ISDOS, Forward: poolForward(false), Cost: poolCost(false), Kernel: poolKernel(true)})
	Register(&Def{Type: "GlobalAveragePool", Class: ISDOS, Forward: poolForward(true), Cost: poolCost(true), Kernel: globalPoolKernel(true)})
	Register(&Def{Type: "GlobalMaxPool", Class: ISDOS, Forward: poolForward(true), Cost: poolCost(true), Kernel: globalPoolKernel(false)})
}
