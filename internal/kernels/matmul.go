package kernels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// gemmNC is the width of a GEMM column block and of an im2col panel:
// 512 floats keep a row's C segment (2 KiB) and the four B rows axpy4
// reads against it in L1, and a block's k×gemmNC slice of B in L2 across
// all m rows of A. EXPERIMENTS.md "GEMM core" has the 256/512/1024 sweep.
const gemmNC = 512

// Gemm computes C[m,n] = A[m,k] × B[k,n] as column blocks of gemmBlock.
func Gemm(a, b []float32, m, k, n int64, c []float32) {
	gemmEp(a, b, m, k, n, c, epilogue{})
}

// gemmEp is Gemm finishing C with ep.
func gemmEp(a, b []float32, m, k, n int64, c []float32, ep epilogue) {
	if m == 0 || k == 0 {
		// No C row, or no B row, to cut column blocks from.
		clear(c[:m*n])
		ep.rows(c, n, m, n)
		return
	}
	for j := int64(0); j < n; j += gemmNC {
		gemmBlock(a, b[j:], n, c[j:], n, m, k, min(gemmNC, n-j), ep.cols(j))
	}
}

// gemmBlock is the one float32 GEMM loop nest, under MatMul, the Gemm
// op, Conv and int8 Conv: C[m,w] = A[m,k] × B[k,w], with A contiguous,
// B's rows ldb apart and C's rows ldc apart. Each group of four A rows
// runs the register tiles across as many columns as they cover
// (gemmTiles: all w on an AVX-512 host) and the row loop over the rest;
// the last m % 4 rows run the row loop over all w. Either way every c[i,j] accumulates its k
// products in ascending p from +0, so the result does not depend on
// which path wrote it or on the blocking around the call. The epilogue
// ep (its bias from the block's first column) finishes each strip of
// four rows, and each row after them, as soon as it is written, while
// it is still in L1.
func gemmBlock(a, b []float32, ldb int64, c []float32, ldc, m, k, w int64, ep epilogue) {
	i := int64(0)
	for ; i+4 <= m; i += 4 {
		j := gemmTiles(a[i*k:], b, ldb, c[i*ldc:], ldc, k, w)
		if j < w {
			for r := i; r < i+4; r++ {
				gemmRow(a[r*k:(r+1)*k], b[j:], ldb, c[r*ldc+j:r*ldc+w])
			}
		}
		ep.rows(c[i*ldc:], ldc, 4, w)
	}
	for ; i < m; i++ {
		gemmRow(a[i*k:(i+1)*k], b, ldb, c[i*ldc:i*ldc+w])
		ep.rows(c[i*ldc:], ldc, 1, w)
	}
}

// gemmRow is gemmBlock's row loop: it clears the C segment ci and folds
// B's rows into it four at a time, one product per ai[p].
func gemmRow(ai, b []float32, ldb int64, ci []float32) {
	clear(ci)
	k, w := int64(len(ai)), int64(len(ci))
	p := int64(0)
	for ; p+4 <= k; p += 4 {
		o := p * ldb
		axpy4(ci, b[o:o+w], b[o+ldb:o+ldb+w], b[o+2*ldb:o+2*ldb+w], b[o+3*ldb:o+3*ldb+w],
			ai[p], ai[p+1], ai[p+2], ai[p+3])
	}
	for ; p < k; p++ {
		axpy1(ci, b[p*ldb:p*ldb+w], ai[p])
	}
}

// gemmRows stripes Gemm's output rows across the thread budget in whole
// groups of four, so a stripe boundary never cuts a register tile into
// row-loop rows. Stripes write disjoint rows and a row's arithmetic does
// not depend on its stripe, so the result is bit-identical for any
// budget. Each stripe finishes its rows with ep.
func gemmRows(threads int, a, b []float32, m, k, n int64, c []float32, ep epilogue) {
	if threads <= 1 {
		// The stripe closure below is a heap allocation per call; a
		// batched MatMul calls here once per batch entry.
		gemmEp(a, b, m, k, n, c, ep)
		return
	}
	ParallelForGrain(threads, (m+3)/4, rowGrain(4*k*n), func(lo, hi int64) {
		lo, hi = 4*lo, min(4*hi, m)
		gemmEp(a[lo*k:hi*k], b, hi-lo, k, n, c[lo*n:hi*n], ep)
	})
}

// matmulKernel implements ONNX MatMul with batch broadcasting, and the
// optional epilogue a fused MatMul carries (matmulEpilogue): input 2 a
// bias over the output columns, input 3 a scalar scale, the activation
// attribute. The intra-op budget stripes batch entries when there are
// several and output rows otherwise.
func matmulKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "MatMul"); err != nil {
		return nil, err
	}
	a, b := in[0], in[1]
	if a.Rank() < 2 || b.Rank() < 2 {
		return nil, fmt.Errorf("MatMul: ranks %d,%d unsupported", a.Rank(), b.Rank())
	}
	if a.DType != tensor.Float32 || (b.DType != tensor.Float32 && !b.DType.IsQuantized()) {
		return nil, fmt.Errorf("MatMul: unsupported dtypes %v,%v", a.DType, b.DType)
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
	ep, err := matmulEpilogue(n, in, nn)
	if err != nil {
		return nil, err
	}
	outShape := append(append([]int64{}, batch...), m, nn)
	out := ctx.Out(0, tensor.Float32, outShape...)
	if b.DType.IsQuantized() {
		if err := matmulQuant(a, b, m, k, nn, out, ctx, ep); err != nil {
			return nil, err
		}
		return []*tensor.Tensor{out}, nil
	}
	threads := ctx.threads()
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
				gemmRows(rowThreads, a.F[aOff:aOff+m*k], b.F[bOff:bOff+k*nn], m, k, nn, out.F[bi*m*nn:(bi+1)*m*nn], ep)
				bi++
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}

// gemmKernel implements the ONNX Gemm op: alpha·op(A)·op(B) + beta·C. A
// transposed operand is packed row-major once so the shared loop nest
// streams it.
func gemmKernel(n *graph.Node, in []*tensor.Tensor, ctx *Ctx) ([]*tensor.Tensor, error) {
	if err := wantInputs(in, 2, "Gemm"); err != nil {
		return nil, err
	}
	// Gemm's transpose attributes make a fused packed path unattractive;
	// quantized operands (rare here — weights are packed at MatMul/Conv)
	// unpack up front.
	a, b := dequantIfNeeded(in[0]), dequantIfNeeded(in[1])
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("Gemm: ranks %d,%d unsupported", a.Rank(), b.Rank())
	}
	if a.DType != tensor.Float32 || b.DType != tensor.Float32 {
		return nil, fmt.Errorf("Gemm: unsupported dtypes %v,%v", a.DType, b.DType)
	}
	alpha := float32(n.AttrFloat("alpha", 1))
	beta := float32(n.AttrFloat("beta", 1))
	if n.AttrInt("transA", 0) != 0 {
		a = transpose2D(a)
	}
	if n.AttrInt("transB", 0) != 0 {
		b = transpose2D(b)
	}
	am, ak := a.Shape[0], a.Shape[1]
	bk, bn := b.Shape[0], b.Shape[1]
	if ak != bk {
		return nil, fmt.Errorf("Gemm: inner dims %d vs %d", ak, bk)
	}
	out := ctx.Out(0, tensor.Float32, am, bn)
	gemmRows(ctx.threads(), a.F, b.F, am, ak, bn, out.F, epilogue{})
	if alpha != 1 {
		for i := range out.F {
			out.F[i] *= alpha
		}
	}
	if len(in) > 2 && in[2] != nil && beta != 0 {
		c := in[2]
		cs := tensor.BroadcastStrides(c.Shape, out.Shape)
		os := tensor.Strides(out.Shape)
		cur := newWalk(out.Shape, os, os, cs).seek(0, out.Len())
		binRuns(func(acc, cv float32) float32 { return acc + beta*cv }, nil, out.F, out.F, c.F, &cur)
	}
	return []*tensor.Tensor{out}, nil
}

// transpose2D returns the row-major transpose of a rank-2 tensor.
func transpose2D(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.DType, x.Shape[1], x.Shape[0])
	copyWalk(out, x, newWalk(out.Shape, tensor.Strides(out.Shape), tensor.PermuteStrides(x.Shape, []int64{1, 0})))
	return out
}

func matmulForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	a := ctx.InShape(0)
	b := ctx.InShape(1)
	if a.Kind != lattice.ShapeRanked || b.Kind != lattice.ShapeRanked {
		if a.IsNAC() || b.IsNAC() {
			out[0].Shape = lattice.NACShape()
		}
		return out, nil
	}
	ra, rb := len(a.Dims), len(b.Dims)
	if ra < 1 || rb < 1 {
		return out, fmt.Errorf("MatMul %s: scalar operand", ctx.Node.Name)
	}
	// Promote 1-D operands per ONNX semantics.
	aDims, bDims := a.Dims, b.Dims
	squeezeA, squeezeB := false, false
	if ra == 1 {
		aDims = []lattice.Dim{lattice.FromInt(1), aDims[0]}
		squeezeA = true
	}
	if rb == 1 {
		bDims = []lattice.Dim{bDims[0], lattice.FromInt(1)}
		squeezeB = true
	}
	batchA := aDims[:len(aDims)-2]
	batchB := bDims[:len(bDims)-2]
	batch := BroadcastShape(lattice.Ranked(batchA...), lattice.Ranked(batchB...))
	if batch.Kind != lattice.ShapeRanked {
		out[0].Shape = batch
		return out, nil
	}
	m := aDims[len(aDims)-2]
	n := bDims[len(bDims)-1]
	if err := checkMatMulEpilogue(ctx, n); err != nil {
		return out, err
	}
	dims := append([]lattice.Dim{}, batch.Dims...)
	if !squeezeA {
		dims = append(dims, m)
	}
	if !squeezeB {
		dims = append(dims, n)
	}
	out[0].Shape = lattice.Ranked(dims...)
	return out, nil
}

// checkMatMulEpilogue holds a fused MatMul's epilogue to what its kernel
// takes, as far as the analysis knows it: the activation always, the
// bias and scale when they are initializers and the column count n is
// a constant.
func checkMatMulEpilogue(ctx *InferCtx, n lattice.Dim) error {
	if _, err := activationRow(ctx.Node); err != nil {
		return err
	}
	nn, ok := n.Const()
	if !ok {
		return nil
	}
	_, err := matmulEpilogue(ctx.Node, []*tensor.Tensor{nil, nil, ctx.InConst(2), ctx.InConst(3)}, nn)
	return err
}

func matmulBackward(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	o := ctx.Out[0].Shape
	a := ctx.InShape(0)
	b := ctx.InShape(1)
	if o.Kind != lattice.ShapeRanked {
		return in, nil
	}
	// Refine A when B is fully known and ranks align: A = batch… × m × k.
	if b.Kind == lattice.ShapeRanked && len(b.Dims) >= 2 && len(o.Dims) >= 2 {
		k := b.Dims[len(b.Dims)-2]
		if ra, ok := a.Rank(); ok && ra == len(o.Dims) && k.IsExpr() {
			dims := make([]lattice.Dim, ra)
			copy(dims, o.Dims[:ra-1])
			dims[ra-1] = k
			in[0].Shape = lattice.Ranked(dims...)
		}
	}
	if a.Kind == lattice.ShapeRanked && len(a.Dims) >= 2 && len(o.Dims) >= 2 {
		k := a.Dims[len(a.Dims)-1]
		if rb, ok := b.Rank(); ok && rb >= 2 && k.IsExpr() {
			dims := make([]lattice.Dim, rb)
			// batch dims align right; n is output's last dim.
			for i := 0; i < rb-2; i++ {
				dims[i] = o.Dims[len(o.Dims)-2-(rb-2)+i]
			}
			dims[rb-2] = k
			dims[rb-1] = o.Dims[len(o.Dims)-1]
			in[1].Shape = lattice.Ranked(dims...)
		}
	}
	return in, nil
}

func matmulCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	if len(in) < 2 || len(out) < 1 {
		return DefaultCost(node, in, out)
	}
	k := in[0][len(in[0])-1]
	return 2 * tensor.NumElems(out[0]) * k, ioBytes(in, out[0])
}

func gemmForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	a := ctx.InShape(0)
	b := ctx.InShape(1)
	if a.Kind != lattice.ShapeRanked || b.Kind != lattice.ShapeRanked || len(a.Dims) != 2 || len(b.Dims) != 2 {
		return out, nil
	}
	transA := ctx.Node.AttrInt("transA", 0) != 0
	transB := ctx.Node.AttrInt("transB", 0) != 0
	m := a.Dims[0]
	if transA {
		m = a.Dims[1]
	}
	n := b.Dims[1]
	if transB {
		n = b.Dims[0]
	}
	out[0].Shape = lattice.Ranked(m, n)
	return out, nil
}

func init() {
	Register(&Def{Type: "MatMul", Class: ISDOS, Forward: matmulForward, Backward: matmulBackward, Cost: matmulCost, Kernel: matmulKernel})
	Register(&Def{Type: "Gemm", Class: ISDOS, Forward: gemmForward, Cost: matmulCost, Kernel: gemmKernel})
}
