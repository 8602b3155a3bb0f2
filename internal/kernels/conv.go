package kernels

import (
	"fmt"
	"math"

	"repro/internal/graph"
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
	if len(strides) != 2 || len(pads) != 4 || len(dil) != 2 {
		// Lengths, not the slices: formatting those would move the three
		// default literals above to the heap on every call.
		return a, fmt.Errorf("Conv: want 2 strides, 4 pads, 2 dilations, got %d, %d, %d", len(strides), len(pads), len(dil))
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
// be float32 or packed.
func convKernel(n *graph.Node, in []*tensor.Tensor, threads int) ([]*tensor.Tensor, error) {
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
	var bias *tensor.Tensor
	if len(in) > 2 && in[2] != nil {
		bias = in[2]
		if bias.DType != tensor.Float32 || bias.Len() != a.cout {
			return nil, fmt.Errorf("Conv: bias %v%v, want %d float32 values", bias.DType, bias.Shape, a.cout)
		}
	}
	out := tensor.New(tensor.Float32, a.n, a.cout, a.outH, a.outW)
	if w.DType.IsQuantized() {
		if err := convIm2colQuant(x, w, out, a, threads); err != nil {
			return nil, err
		}
	} else {
		convIm2col(x, w, out, a, threads)
	}
	if bias != nil {
		addConvBias(bias, out, a)
	}
	return []*tensor.Tensor{out}, nil
}

// addConvBias adds the per-channel bias in place.
func addConvBias(bias, out *tensor.Tensor, a conv2dArgs) {
	plane := a.outH * a.outW
	for b := int64(0); b < a.n; b++ {
		for c := int64(0); c < a.cout; c++ {
			base := (b*a.cout + c) * plane
			bv := bias.F[c]
			for i := int64(0); i < plane; i++ {
				out.F[base+i] += bv
			}
		}
	}
}

// convIm2col lowers convolution to GEMM: per (batch, group), build the
// patch matrix [cinPerGroup*kh*kw, outH*outW] and multiply by the weight
// matrix [coutPerGroup, cinPerGroup*kh*kw]. The intra-op budget stripes
// the GEMM's output rows.
func convIm2col(x, w, out *tensor.Tensor, a conv2dArgs, threads int) {
	coutPerGroup := a.cout / a.group
	k := a.cinPerGroup * a.kh * a.kw
	cols := a.outH * a.outW
	patch := make([]float32, k*cols)
	for b := int64(0); b < a.n; b++ {
		for g := int64(0); g < a.group; g++ {
			im2colPatch(x, patch, a, b, g, cols)
			// GEMM: [coutPerGroup, k] × [k, cols]
			wMat := w.F[g*coutPerGroup*k : (g+1)*coutPerGroup*k]
			outMat := out.F[((b*a.cout)+g*coutPerGroup)*cols : ((b*a.cout)+(g+1)*coutPerGroup)*cols]
			gemmRows(threads, wMat, patch, coutPerGroup, k, cols, outMat)
		}
	}
}

// im2colPatch fills patch [cinPerGroup*kh*kw, cols] for one (batch,
// group) pair — shared by the float and quantized im2col paths.
func im2colPatch(x *tensor.Tensor, patch []float32, a conv2dArgs, b, g, cols int64) {
	row := int64(0)
	for ic := int64(0); ic < a.cinPerGroup; ic++ {
		inC := g*a.cinPerGroup + ic
		base := (b*a.cin + inC) * a.h * a.w
		for kh := int64(0); kh < a.kh; kh++ {
			for kw := int64(0); kw < a.kw; kw++ {
				dst := patch[row*cols : (row+1)*cols]
				idx := int64(0)
				for oh := int64(0); oh < a.outH; oh++ {
					ih := oh*a.strideH - a.padT + kh*a.dilH
					if ih < 0 || ih >= a.h {
						for ow := int64(0); ow < a.outW; ow++ {
							dst[idx] = 0
							idx++
						}
						continue
					}
					rowBase := base + ih*a.w
					for ow := int64(0); ow < a.outW; ow++ {
						iw := ow*a.strideW - a.padL + kw*a.dilW
						if iw < 0 || iw >= a.w {
							dst[idx] = 0
						} else {
							dst[idx] = x.F[rowBase+iw]
						}
						idx++
					}
				}
				row++
			}
		}
	}
}

func poolKernel(avg bool) Kernel {
	return func(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if err := wantInputs(in, 1, n.OpType); err != nil {
			return nil, err
		}
		x := in[0]
		if x.Rank() != 4 {
			return nil, fmt.Errorf("%s: rank %d unsupported", n.OpType, x.Rank())
		}
		kernel := n.AttrInts("kernel_shape", nil)
		if kernel == nil {
			return nil, fmt.Errorf("%s: missing kernel_shape", n.OpType)
		}
		strides := n.AttrInts("strides", []int64{1, 1})
		pads := n.AttrInts("pads", []int64{0, 0, 0, 0})
		N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
		outH := (H+pads[0]+pads[2]-kernel[0])/strides[0] + 1
		outW := (W+pads[1]+pads[3]-kernel[1])/strides[1] + 1
		out := tensor.New(tensor.Float32, N, C, outH, outW)
		for b := int64(0); b < N; b++ {
			for c := int64(0); c < C; c++ {
				base := (b*C + c) * H * W
				for oh := int64(0); oh < outH; oh++ {
					for ow := int64(0); ow < outW; ow++ {
						var acc float32
						count := int64(0)
						best := float32(math.Inf(-1))
						for kh := int64(0); kh < kernel[0]; kh++ {
							ih := oh*strides[0] - pads[0] + kh
							if ih < 0 || ih >= H {
								continue
							}
							for kw := int64(0); kw < kernel[1]; kw++ {
								iw := ow*strides[1] - pads[1] + kw
								if iw < 0 || iw >= W {
									continue
								}
								v := x.F[base+ih*W+iw]
								acc += v
								count++
								if v > best {
									best = v
								}
							}
						}
						var res float32
						if avg {
							if count > 0 {
								res = acc / float32(count)
							}
						} else {
							res = best
						}
						out.F[((b*C+c)*outH+oh)*outW+ow] = res
					}
				}
			}
		}
		return []*tensor.Tensor{out}, nil
	}
}

func globalPoolKernel(avg bool) Kernel {
	return func(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error) {
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
		out := tensor.New(tensor.Float32, outShape...)
		for b := int64(0); b < N; b++ {
			for c := int64(0); c < C; c++ {
				base := (b*C + c) * plane
				if avg {
					var acc float32
					for i := int64(0); i < plane; i++ {
						acc += x.F[base+i]
					}
					out.F[b*C+c] = acc / float32(plane)
				} else {
					best := float32(math.Inf(-1))
					for i := int64(0); i < plane; i++ {
						if x.F[base+i] > best {
							best = x.F[base+i]
						}
					}
					out.F[b*C+c] = best
				}
			}
		}
		return []*tensor.Tensor{out}, nil
	}
}

func init() {
	registerThreaded("Conv", convKernel)
	register("MaxPool", poolKernel(false))
	register("AveragePool", poolKernel(true))
	register("GlobalAveragePool", globalPoolKernel(true))
	register("GlobalMaxPool", globalPoolKernel(false))
}
