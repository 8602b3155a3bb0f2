package kernels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// spaceToDepthKernel rearranges [N, C, H, W] → [N, C·b², H/b, W/b]
// (YOLO-style Focus/slice stems use it to trade resolution for channels).
func spaceToDepthKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "SpaceToDepth"); err != nil {
		return nil, err
	}
	x := in[0]
	b := n.AttrInt("blocksize", 2)
	if x.Rank() != 4 || b <= 0 {
		return nil, fmt.Errorf("SpaceToDepth: rank %d blocksize %d", x.Rank(), b)
	}
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if H%b != 0 || W%b != 0 {
		return nil, fmt.Errorf("SpaceToDepth: %dx%d not divisible by %d", H, W, b)
	}
	oh, ow := H/b, W/b
	out := ctx.Out(0, tensor.Float32, N, C*b*b, oh, ow)
	for bn := int64(0); bn < N; bn++ {
		for c := int64(0); c < C; c++ {
			for by := int64(0); by < b; by++ {
				for bx := int64(0); bx < b; bx++ {
					oc := c*b*b + by*b + bx
					for y := int64(0); y < oh; y++ {
						for xx := int64(0); xx < ow; xx++ {
							src := ((bn*C+c)*H+(y*b+by))*W + (xx*b + bx)
							dst := ((bn*C*b*b+oc)*oh+y)*ow + xx
							out.F[dst] = x.F[src]
						}
					}
				}
			}
		}
	}
	return []*tensor.Tensor{out}, nil
}

// depthToSpaceKernel is the inverse: [N, C·b², H, W] → [N, C, H·b, W·b]
// (DCR mode).
func depthToSpaceKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 1, "DepthToSpace"); err != nil {
		return nil, err
	}
	x := in[0]
	b := n.AttrInt("blocksize", 2)
	if x.Rank() != 4 || b <= 0 {
		return nil, fmt.Errorf("DepthToSpace: rank %d blocksize %d", x.Rank(), b)
	}
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if C%(b*b) != 0 {
		return nil, fmt.Errorf("DepthToSpace: C=%d not divisible by %d", C, b*b)
	}
	oc := C / (b * b)
	out := ctx.Out(0, tensor.Float32, N, oc, H*b, W*b)
	for bn := int64(0); bn < N; bn++ {
		for c := int64(0); c < oc; c++ {
			for by := int64(0); by < b; by++ {
				for bx := int64(0); bx < b; bx++ {
					ic := c*b*b + by*b + bx
					for y := int64(0); y < H; y++ {
						for xx := int64(0); xx < W; xx++ {
							src := ((bn*C+ic)*H+y)*W + xx
							dst := ((bn*oc+c)*(H*b)+(y*b+by))*(W*b) + (xx*b + bx)
							out.F[dst] = x.F[src]
						}
					}
				}
			}
		}
	}
	return []*tensor.Tensor{out}, nil
}

// spaceForward is the transfer of SpaceToDepth (toDepth) and of its
// inverse DepthToSpace: channels scale by b² one way, each spatial dim
// by b the other.
func spaceForward(toDepth bool) ForwardFn {
	return func(ctx *InferCtx) ([]lattice.Info, error) {
		out := nOutputs(ctx.Node)
		x := ctx.InShape(0)
		if x.Kind != lattice.ShapeRanked || len(x.Dims) != 4 {
			out[0].Shape = x
			return out, nil
		}
		b := ctx.Node.AttrInt("blocksize", 2)
		grow, shrink := mulDimConst, divDimConst
		if !toDepth {
			grow, shrink = shrink, grow
		}
		out[0].Shape = lattice.Ranked(x.Dims[0], grow(x.Dims[1], b*b), shrink(x.Dims[2], b), shrink(x.Dims[3], b))
		return out, nil
	}
}

// mulDimConst / divDimConst lift constant scaling into the dim lattice.
func mulDimConst(d lattice.Dim, c int64) lattice.Dim {
	if !d.IsExpr() {
		return lattice.Dim{Kind: d.Kind}
	}
	return lattice.FromExpr(symbolic.Mul(d.E, symbolic.NewConst(c)))
}

func divDimConst(d lattice.Dim, c int64) lattice.Dim {
	if !d.IsExpr() {
		return lattice.Dim{Kind: d.Kind}
	}
	return lattice.FromExpr(symbolic.Div(d.E, symbolic.NewConst(c)))
}

func init() {
	Register(&Def{Type: "SpaceToDepth", Class: ISDOS, Forward: spaceForward(true), Kernel: spaceToDepthKernel})
	Register(&Def{Type: "DepthToSpace", Class: ISDOS, Forward: spaceForward(false), Kernel: depthToSpaceKernel})
}
