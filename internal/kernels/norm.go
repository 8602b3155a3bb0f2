package kernels

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// rowGrain converts the elementwise parGrain into a row-count grain for
// kernels whose parallel unit is an independent row of `inner` elements.
func rowGrain(inner int64) int64 {
	if inner < 1 {
		inner = 1
	}
	g := parGrain / inner
	if g < 1 {
		g = 1
	}
	return g
}

func softmaxKernel(logMode bool) Kernel {
	return func(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, n.OpType); err != nil {
			return nil, err
		}
		x := in[0]
		axis := n.AttrInt("axis", -1)
		if axis < 0 {
			axis += int64(x.Rank())
		}
		if int(axis) != x.Rank()-1 {
			return nil, fmt.Errorf("%s: only last-axis supported (axis=%d rank=%d)", n.OpType, axis, x.Rank())
		}
		out := ctx.Out(0, tensor.Float32, x.Shape...)
		if x.Len() == 0 { // nothing to normalise, and inner may be 0
			return []*tensor.Tensor{out}, nil
		}
		inner := x.Shape[x.Rank()-1]
		outer := x.Len() / inner
		// Rows go four at a time, the interleaved exp body's group.
		softmaxRows := func(oLo, oHi int64) {
			for o := oLo; o < oHi; o += 4 {
				k := min(4, oHi-o)
				rows, dsts := x.F[o*inner:(o+k)*inner], out.F[o*inner:(o+k)*inner]
				var maxV [4]float32
				var sum [4]float64
				for r := int64(0); r < k; r++ {
					maxV[r] = maxRow(rows[r*inner : (r+1)*inner])
				}
				expRows(dsts, rows, inner, &maxV, &sum)
				for r := int64(0); r < k; r++ {
					row, dst := rows[r*inner:(r+1)*inner], dsts[r*inner:(r+1)*inner]
					if logMode {
						ls := float32(math.Log(sum[r]))
						for i, v := range row {
							dst[i] = v - maxV[r] - ls
						}
					} else {
						scaleRow(dst, float32(1/sum[r]))
					}
				}
			}
		}
		ParallelForGrain(ctx.threads(), outer, rowGrain(inner), softmaxRows)
		return []*tensor.Tensor{out}, nil
	}
}

// layerNormKernel normalizes over the trailing axes starting at `axis`
// (default -1) with optional scale and bias inputs. Rows are normalized
// independently, so the budget stripes the outer dimension.
func layerNormKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "LayerNormalization"); err != nil {
		return nil, err
	}
	x := in[0]
	axis, err := resolveAxis("LayerNormalization", n.AttrInt("axis", -1), x.Rank(), false)
	if err != nil {
		return nil, err
	}
	eps := float32(n.AttrFloat("epsilon", 1e-5))
	out := ctx.Out(0, tensor.Float32, x.Shape...)
	if x.Len() == 0 { // nothing to normalise, and inner may be 0
		return []*tensor.Tensor{out}, nil
	}
	inner := tensor.NumElems(x.Shape[axis:])
	outer := x.Len() / inner
	scale, err := optionalFloatInput(in, 1, "LayerNormalization")
	if err != nil {
		return nil, err
	}
	bias, err := optionalFloatInput(in, 2, "LayerNormalization")
	if err != nil {
		return nil, err
	}
	ParallelForGrain(ctx.threads(), outer, rowGrain(inner), func(oLo, oHi int64) {
		// The closure keeps the tensors, not their slices: it is a heap
		// object per call, and slices would make it 32 bytes larger.
		var sf, bf []float32
		if scale != nil {
			sf = scale.F
		}
		if bias != nil {
			bf = bias.F
		}
		for o := oLo; o < oHi; o += 4 {
			k := min(4, oHi-o)
			mean, variance := rowStats(x.F[o*inner:(o+k)*inner], inner)
			for r := int64(0); r < k; r++ {
				row := x.F[(o+r)*inner : (o+r+1)*inner]
				dst := out.F[(o+r)*inner : (o+r+1)*inner]
				inv := float32(1 / math.Sqrt(variance[r]+float64(eps)))
				layerNormRow(dst, row, sf, bf, float32(mean[r]), inv)
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}

// optionalFloatInput is the optional input i, nil when it is absent and an
// error when it is present but holds no float32 values.
func optionalFloatInput(in []*tensor.Tensor, i int, op string) (*tensor.Tensor, error) {
	if len(in) <= i || in[i] == nil {
		return nil, nil
	}
	if len(in[i].F) == 0 {
		return nil, fmt.Errorf("%s: input %d holds no float32 values", op, i)
	}
	return in[i], nil
}

// layerNormRow writes dst[i] = (row[i]−m)·inv, then ·scale[i], then
// +bias[i], for a nil scale or bias skipping its step, and a scale or
// bias shorter than the row repeating along it. Every product is rounded
// before the next step (the float32 conversions), so no target fuses a
// multiply with the add that follows it. Scale and bias both a row long,
// what every LayerNorm the models build passes, take a loop of their own.
func layerNormRow(dst, row, scale, bias []float32, m, inv float32) {
	n := len(row)
	dst = dst[:n]
	if len(scale) == n && len(bias) == n {
		for i, v := range row {
			y := float32((v - m) * inv)
			y = float32(y * scale[i])
			dst[i] = y + bias[i]
		}
		return
	}
	si, bi := 0, 0
	for i, v := range row {
		y := float32((v - m) * inv)
		if scale != nil {
			y = float32(y * scale[si])
			if si++; si == len(scale) {
				si = 0
			}
		}
		if bias != nil {
			y += bias[bi]
			if bi++; bi == len(bias) {
				bi = 0
			}
		}
		dst[i] = y
	}
}

// rowStats returns the float64 mean and variance of each of the
// len(x)/l rows of x, at most four, row r in mean[r] and variance[r]:
// the sum of the row's values in ascending order over l, then the sum of
// their squared deviations from that mean in ascending order over l.
// Four rows go through rowStats4, fewer one at a time; either way each
// row's two sums are the same chain of additions.
func rowStats(x []float32, l int64) (mean, variance [4]float64) {
	if int64(len(x)) == 4*l {
		return rowStats4(x, l)
	}
	for r := int64(0); r < int64(len(x))/l; r++ {
		row := x[r*l : (r+1)*l]
		var m, v float64
		for _, e := range row {
			m += float64(e)
		}
		m /= float64(l)
		for _, e := range row {
			d := float64(e) - m
			v += d * d
		}
		mean[r], variance[r] = m, v/float64(l)
	}
	return mean, variance
}

// rowStats4 is rowStats on four rows of l values, their four chains
// interleaved in one loop per sum, so that the additions of different
// rows overlap where one row's would wait on each other.
func rowStats4(x []float32, l int64) (mean, variance [4]float64) {
	r0, r1, r2, r3 := x[:l], x[l:2*l], x[2*l:3*l], x[3*l:4*l]
	var m0, m1, m2, m3 float64
	for i, e := range r0 {
		m0 += float64(e)
		m1 += float64(r1[i])
		m2 += float64(r2[i])
		m3 += float64(r3[i])
	}
	n := float64(l)
	m0, m1, m2, m3 = m0/n, m1/n, m2/n, m3/n
	var v0, v1, v2, v3 float64
	for i, e := range r0 {
		d0 := float64(e) - m0
		d1 := float64(r1[i]) - m1
		d2 := float64(r2[i]) - m2
		d3 := float64(r3[i]) - m3
		v0 += d0 * d0
		v1 += d1 * d1
		v2 += d2 * d2
		v3 += d3 * d3
	}
	return [4]float64{m0, m1, m2, m3}, [4]float64{v0 / n, v1 / n, v2 / n, v3 / n}
}

// batchNormKernel: inference-mode y = scale*(x-mean)/sqrt(var+eps)+bias,
// parameters indexed by channel (dim 1). (batch, channel) planes are
// independent, so the budget stripes the flattened N*C range.
func batchNormKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 5, "BatchNormalization"); err != nil {
		return nil, err
	}
	x, scale, bias, mean, variance := in[0], in[1], in[2], in[3], in[4]
	eps := float32(n.AttrFloat("epsilon", 1e-5))
	if x.Rank() < 2 {
		return nil, fmt.Errorf("BatchNormalization: rank %d", x.Rank())
	}
	C := x.Shape[1]
	plane := tensor.NumElems(x.Shape[2:])
	N := x.Shape[0]
	out := ctx.Out(0, tensor.Float32, x.Shape...)
	ParallelForGrain(ctx.threads(), N*C, rowGrain(plane), func(lo, hi int64) {
		for bc := lo; bc < hi; bc++ {
			c := bc % C
			inv := float32(1 / math.Sqrt(float64(variance.F[c])+float64(eps)))
			s, bi, m := scale.F[c], bias.F[c], mean.F[c]
			base := bc * plane
			for i := int64(0); i < plane; i++ {
				out.F[base+i] = s*(x.F[base+i]-m)*inv + bi
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}

// groupNormKernel normalizes within num_groups channel groups.
func groupNormKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := normInput(in, "GroupNormalization"); err != nil {
		return nil, err
	}
	return groupNorm(in, ctx, n.AttrInt("num_groups", 1), float32(n.AttrFloat("epsilon", 1e-5)))
}

// instanceNormKernel is GroupNormalization with one group per channel.
func instanceNormKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := normInput(in, "InstanceNormalization"); err != nil {
		return nil, err
	}
	return groupNorm(in, ctx, in[0].Shape[1], float32(n.AttrFloat("epsilon", 1e-5)))
}

// normInput checks the data input of a channel normalization: present
// and at least [N, C].
func normInput(in []*tensor.Tensor, op string) error {
	if err := wantInputs(in, 1, op); err != nil {
		return err
	}
	if r := in[0].Rank(); r < 2 {
		return fmt.Errorf("%s: rank %d, want at least 2", op, r)
	}
	return nil
}

// groupNorm normalizes in[0] (checked by normInput) within groups
// channel groups, then scales and shifts each channel by in[1] and in[2]
// when present. (batch, group) spans are independent, so the budget
// stripes the flattened N*groups range.
func groupNorm(in []*tensor.Tensor, ctx *Ctx, groups int64, eps float32) ([]*tensor.Tensor, error) {
	x := in[0]
	if groups < 1 {
		return nil, fmt.Errorf("GroupNormalization: num_groups %d, want at least 1", groups)
	}
	N, C := x.Shape[0], x.Shape[1]
	if C%groups != 0 {
		return nil, fmt.Errorf("GroupNormalization: C=%d %% groups=%d", C, groups)
	}
	// scale and bias are indexed by channel: each must hold C values.
	var affine [2]*tensor.Tensor
	for i := range affine {
		t, err := optionalFloatInput(in, i+1, "GroupNormalization")
		if err != nil {
			return nil, err
		}
		if t != nil && int64(len(t.F)) < C {
			return nil, fmt.Errorf("GroupNormalization: input %d holds %d values for %d channels", i+1, len(t.F), C)
		}
		affine[i] = t
	}
	scale, bias := affine[0], affine[1]
	plane := tensor.NumElems(x.Shape[2:])
	chPerGroup := C / groups
	span := chPerGroup * plane
	out := ctx.Out(0, tensor.Float32, x.Shape...)
	// A (batch, group) span is x[bg·span:(bg+1)·span]; they go four at a
	// time through rowStats.
	ParallelForGrain(ctx.threads(), N*groups, rowGrain(span), func(lo, hi int64) {
		for bg0 := lo; bg0 < hi; bg0 += 4 {
			k := min(4, hi-bg0)
			mean, variance := rowStats(x.F[bg0*span:(bg0+k)*span], span)
			for r := int64(0); r < k; r++ {
				g := (bg0 + r) % groups
				inv := float32(1 / math.Sqrt(variance[r]+float64(eps)))
				for c := int64(0); c < chPerGroup; c++ {
					ch := g*chPerGroup + c
					s, bi := float32(1), float32(0)
					if scale != nil {
						s = scale.F[ch]
					}
					if bias != nil {
						bi = bias.F[ch]
					}
					cbase := (bg0+r)*span + c*plane
					normAffine(out.F[cbase:cbase+plane], x.F[cbase:cbase+plane], s, float32(mean[r]), inv, bi)
				}
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}

// normAffineGo stores s·(v−m)·inv + b for each v of x into o, each
// operation rounded in float32 in that order: GroupNorm's last pass.
func normAffineGo(o, x []float32, s, m, inv, b float32) {
	o = o[:len(x)]
	for i, v := range x {
		o[i] = s*(v-m)*inv + b
	}
}

func normCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	if len(out) < 1 {
		return DefaultCost(node, in, out)
	}
	return 8 * tensor.NumElems(out[0]), ioBytes(in, out[0])
}

func softmaxCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	if len(out) < 1 {
		return DefaultCost(node, in, out)
	}
	n := tensor.NumElems(out[0])
	return 5 * n, 8 * n
}

func init() {
	// Softmax and the normalizations keep their input's shape.
	row := func(op string, c DynClass, cost CostFn, k Kernel) {
		Register(&Def{Type: op, Class: c, Forward: forwardUnary(false), Backward: backwardUnary, Cost: cost, Kernel: k})
	}
	row("Softmax", ISDOS, softmaxCost, softmaxKernel(false))
	row("LogSoftmax", ISDOS, softmaxCost, softmaxKernel(true))
	row("LayerNormalization", ISDOS, normCost, layerNormKernel)
	row("BatchNormalization", ISDOS, normCost, batchNormKernel)
	row("InstanceNormalization", ISDOS, normCost, instanceNormKernel)
	// GroupNormalization is listed as ISVDOS in Table 2 (its num_groups
	// interaction), but shape-wise it preserves the input shape.
	row("GroupNormalization", ISVDOS, normCost, groupNormKernel)
}
