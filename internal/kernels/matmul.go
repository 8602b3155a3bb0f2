package kernels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// GemmVariant identifies one generated code version of the GEMM kernel.
// The MVC subsystem (paper §4.4.2) selects among these based on the
// RDP-predicted shape regime: fat (m ≫ n), skinny (n ≫ m), tiny, and
// regular tiled schedules.
type GemmVariant uint8

// GEMM schedule variants.
const (
	GemmNaive GemmVariant = iota
	GemmTiledRegular
	GemmRowMajorFat
	GemmColMajorSkinny
	GemmTiny
)

func (v GemmVariant) String() string {
	switch v {
	case GemmNaive:
		return "naive"
	case GemmTiledRegular:
		return "tiled-regular"
	case GemmRowMajorFat:
		return "row-major-fat"
	case GemmColMajorSkinny:
		return "col-major-skinny"
	case GemmTiny:
		return "tiny"
	default:
		return "unknown"
	}
}

// GemmVariants lists all selectable variants.
func GemmVariants() []GemmVariant {
	return []GemmVariant{GemmNaive, GemmTiledRegular, GemmRowMajorFat, GemmColMajorSkinny, GemmTiny}
}

// SelectGemmVariant picks the schedule the auto-tuner associates with the
// (m, k, n) regime — the empirical shape→version mapping of §4.4.2.
func SelectGemmVariant(m, k, n int64) GemmVariant {
	switch {
	case m*n <= 64:
		return GemmTiny
	case m >= 4*n:
		return GemmRowMajorFat
	case n >= 4*m:
		return GemmColMajorSkinny
	default:
		return GemmTiledRegular
	}
}

// Gemm computes C[m,n] = A[m,k] × B[k,n] with the chosen variant. All
// variants compute identical results; they differ in loop order and
// blocking (observable in the wall-clock benchmarks).
func Gemm(variant GemmVariant, a, b []float32, m, k, n int64, c []float32) {
	switch variant {
	case GemmNaive, GemmTiny:
		for i := int64(0); i < m; i++ {
			for j := int64(0); j < n; j++ {
				var acc float32
				for p := int64(0); p < k; p++ {
					acc += a[i*k+p] * b[p*n+j]
				}
				c[i*n+j] = acc
			}
		}
	case GemmRowMajorFat:
		// ikj order: streams B rows, accumulates into C rows — good when
		// m is large relative to n.
		for i := int64(0); i < m; i++ {
			ci := c[i*n : (i+1)*n]
			for p := int64(0); p < k; p++ {
				av := a[i*k+p]
				bp := b[p*n : (p+1)*n]
				for j := int64(0); j < n; j++ {
					ci[j] += av * bp[j]
				}
			}
		}
	case GemmColMajorSkinny:
		// jik order with k-inner accumulation: good when n dominates.
		for j := int64(0); j < n; j++ {
			for i := int64(0); i < m; i++ {
				var acc float32
				for p := int64(0); p < k; p++ {
					acc += a[i*k+p] * b[p*n+j]
				}
				c[i*n+j] = acc
			}
		}
	default: // GemmTiledRegular
		const tile = 32
		for i0 := int64(0); i0 < m; i0 += tile {
			iMax := min64(i0+tile, m)
			for p0 := int64(0); p0 < k; p0 += tile {
				pMax := min64(p0+tile, k)
				for j0 := int64(0); j0 < n; j0 += tile {
					jMax := min64(j0+tile, n)
					for i := i0; i < iMax; i++ {
						for p := p0; p < pMax; p++ {
							av := a[i*k+p]
							base := p * n
							ci := i * n
							for j := j0; j < jMax; j++ {
								c[ci+j] += av * b[base+j]
							}
						}
					}
				}
			}
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// matmulKernel implements ONNX MatMul with batch broadcasting. The
// "variant" node attribute (set by the MVC pass) selects the schedule;
// the intra-op budget stripes output rows via GemmParallel (bit-identical
// to the sequential schedule — per-element accumulation order is
// unchanged by row striping).
func matmulKernel(n *graph.Node, in []*tensor.Tensor, threads int) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "MatMul"); err != nil {
		return nil, err
	}
	a, b := in[0], in[1]
	if a.Rank() < 2 || b.Rank() < 2 {
		return nil, fmt.Errorf("MatMul: ranks %d,%d unsupported", a.Rank(), b.Rank())
	}
	m := a.Shape[a.Rank()-2]
	k := a.Shape[a.Rank()-1]
	k2 := b.Shape[b.Rank()-2]
	nn := b.Shape[b.Rank()-1]
	if k != k2 {
		return nil, fmt.Errorf("MatMul: inner dims %d vs %d", k, k2)
	}
	batchA := a.Shape[:a.Rank()-2]
	batchB := b.Shape[:b.Rank()-2]
	batch, err := tensor.BroadcastShapes(batchA, batchB)
	if err != nil {
		return nil, err
	}
	outShape := append(append([]int64{}, batch...), m, nn)
	out := tensor.New(tensor.Float32, outShape...)
	if b.DType.IsQuantized() {
		if err := matmulQuant(a, b, m, k, nn, out, threads); err != nil {
			return nil, err
		}
		return []*tensor.Tensor{out}, nil
	}
	variant := GemmVariant(n.AttrInt("variant", int64(GemmTiledRegular)))
	if v := n.AttrInt("auto_variant", 0); v != 0 {
		variant = SelectGemmVariant(m, k, nn)
	}
	// Batch entries walk A and B by their own (possibly broadcast) batch
	// strides. With several entries the budget stripes across them (each
	// writes a disjoint out slab); a single large matmul stripes rows.
	w := newWalk(batch, tensor.BroadcastStrides(batchA, batch), tensor.BroadcastStrides(batchB, batch))
	batchThreads, rowThreads := 1, threads
	if w.n > 1 {
		batchThreads, rowThreads = threads, 1
	}
	ParallelForGrain(batchThreads, w.n, 1, func(lo, hi int64) {
		c := w.seek(lo, hi)
		bi := lo
		for c.next() {
			for i := int64(0); i < c.n; i++ {
				aOff := (c.off[0] + i*w.inner(0)) * m * k
				bOff := (c.off[1] + i*w.inner(1)) * k * nn
				GemmParallel(variant, rowThreads, a.F[aOff:aOff+m*k], b.F[bOff:bOff+k*nn], m, k, nn, out.F[bi*m*nn:(bi+1)*m*nn])
				bi++
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}

func gemmKernel(n *graph.Node, in []*tensor.Tensor, threads int) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "Gemm"); err != nil {
		return nil, err
	}
	// Gemm's transpose attributes make a fused packed path unattractive;
	// quantized operands (rare here — MVC routes weights at MatMul/Conv)
	// unpack up front.
	a, b := dequantIfNeeded(in[0]), dequantIfNeeded(in[1])
	alpha := float32(n.AttrFloat("alpha", 1))
	beta := float32(n.AttrFloat("beta", 1))
	transA := n.AttrInt("transA", 0) != 0
	transB := n.AttrInt("transB", 0) != 0
	am, ak := a.Shape[0], a.Shape[1]
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.Shape[0], b.Shape[1]
	if transB {
		bk, bn = bn, bk
	}
	if ak != bk {
		return nil, fmt.Errorf("Gemm: inner dims %d vs %d", ak, bk)
	}
	out := tensor.New(tensor.Float32, am, bn)
	at := func(i, p int64) float32 {
		if transA {
			return a.F[p*a.Shape[1]+i]
		}
		return a.F[i*a.Shape[1]+p]
	}
	bt := func(p, j int64) float32 {
		if transB {
			return b.F[j*b.Shape[1]+p]
		}
		return b.F[p*b.Shape[1]+j]
	}
	ParallelForGrain(threads, am, rowGrain(ak*bn), func(iLo, iHi int64) {
		for i := iLo; i < iHi; i++ {
			for j := int64(0); j < bn; j++ {
				var acc float32
				for p := int64(0); p < ak; p++ {
					acc += at(i, p) * bt(p, j)
				}
				out.F[i*bn+j] = alpha * acc
			}
		}
	})
	if len(in) > 2 && in[2] != nil && beta != 0 {
		c := in[2]
		cs := tensor.BroadcastStrides(c.Shape, out.Shape)
		os := tensor.Strides(out.Shape)
		cur := newWalk(out.Shape, os, os, cs).seek(0, out.Len())
		binRuns(func(acc, cv float32) float32 { return acc + beta*cv }, out.F, out.F, c.F, &cur)
	}
	return []*tensor.Tensor{out}, nil
}

func init() {
	register("MatMul", func(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error) {
		return matmulKernel(n, in, 1)
	})
	registerBudgeted("MatMul", matmulKernel)
	register("Gemm", func(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error) {
		return gemmKernel(n, in, 1)
	})
	registerBudgeted("Gemm", gemmKernel)
}
