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
	var scale, bias *tensor.Tensor
	if len(in) > 1 && in[1] != nil {
		scale = in[1]
	}
	if len(in) > 2 && in[2] != nil {
		bias = in[2]
	}
	ParallelForGrain(ctx.threads(), outer, rowGrain(inner), func(oLo, oHi int64) {
		for o := oLo; o < oHi; o++ {
			row := x.F[o*inner : (o+1)*inner]
			dst := out.F[o*inner : (o+1)*inner]
			var mean float64
			for _, v := range row {
				mean += float64(v)
			}
			mean /= float64(inner)
			var variance float64
			for _, v := range row {
				d := float64(v) - mean
				variance += d * d
			}
			variance /= float64(inner)
			inv := float32(1 / math.Sqrt(variance+float64(eps)))
			// scale and bias repeat along the row when shorter than it.
			si, bi := 0, 0
			for i, v := range row {
				r := (v - float32(mean)) * inv
				if scale != nil {
					r *= scale.F[si]
					if si++; si == len(scale.F) {
						si = 0
					}
				}
				if bias != nil {
					r += bias.F[bi]
					if bi++; bi == len(bias.F) {
						bi = 0
					}
				}
				dst[i] = r
			}
		}
	})
	return []*tensor.Tensor{out}, nil
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

// groupNormKernel normalizes within channel groups. (batch, group)
// spans are independent, so the budget stripes the flattened N*groups
// range.
func groupNormKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "GroupNormalization"); err != nil {
		return nil, err
	}
	x := in[0]
	groups := n.AttrInt("num_groups", 1)
	eps := float32(n.AttrFloat("epsilon", 1e-5))
	if x.Rank() < 2 {
		return nil, fmt.Errorf("GroupNormalization: rank %d", x.Rank())
	}
	N, C := x.Shape[0], x.Shape[1]
	if C%groups != 0 {
		return nil, fmt.Errorf("GroupNormalization: C=%d %% groups=%d", C, groups)
	}
	plane := tensor.NumElems(x.Shape[2:])
	chPerGroup := C / groups
	span := chPerGroup * plane
	out := ctx.Out(0, tensor.Float32, x.Shape...)
	var scale, bias *tensor.Tensor
	if len(in) > 1 && in[1] != nil {
		scale = in[1]
	}
	if len(in) > 2 && in[2] != nil {
		bias = in[2]
	}
	ParallelForGrain(ctx.threads(), N*groups, rowGrain(span), func(lo, hi int64) {
		for bg := lo; bg < hi; bg++ {
			b, g := bg/groups, bg%groups
			base := b*C*plane + g*span
			var mean float64
			for i := int64(0); i < span; i++ {
				mean += float64(x.F[base+i])
			}
			mean /= float64(span)
			var variance float64
			for i := int64(0); i < span; i++ {
				d := float64(x.F[base+i]) - mean
				variance += d * d
			}
			variance /= float64(span)
			inv := float32(1 / math.Sqrt(variance+float64(eps)))
			for c := int64(0); c < chPerGroup; c++ {
				ch := g*chPerGroup + c
				s, bi := float32(1), float32(0)
				if scale != nil {
					s = scale.F[ch]
				}
				if bias != nil {
					bi = bias.F[ch]
				}
				cbase := base + c*plane
				for i := int64(0); i < plane; i++ {
					out.F[cbase+i] = s*(x.F[cbase+i]-float32(mean))*inv + bi
				}
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}

func instanceNormKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	// InstanceNorm == GroupNorm with groups == C.
	if err := wantInputs(in, 1, "InstanceNormalization"); err != nil {
		return nil, err
	}
	clone := &graph.Node{Name: n.Name, OpType: "GroupNormalization", Inputs: n.Inputs, Outputs: n.Outputs,
		Attrs: map[string]graph.AttrValue{
			"num_groups": graph.IntAttr(in[0].Shape[1]),
			"epsilon":    graph.FloatAttr(n.AttrFloat("epsilon", 1e-5)),
		}}
	return groupNormKernel(clone, in, ctx)
}

func init() {
	register("Softmax", softmaxKernel(false))
	register("LogSoftmax", softmaxKernel(true))
	register("LayerNormalization", layerNormKernel)
	register("BatchNormalization", batchNormKernel)
	register("GroupNormalization", groupNormKernel)
	register("InstanceNormalization", instanceNormKernel)
}
