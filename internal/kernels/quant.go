// Quantized-weight kernels: GEMM, CONV, and elementwise paths that
// consume int8 row-quantized weights directly. The GEMMs widen or
// dequantize the packed operand a panel at a time into scratch and run
// the float32 core (gemmBlock) on it, so the products and their order
// are the float kernel's. Activations stay float32 throughout — this is
// weight-only quantization, so only the B-side (MatMul) or filter-side
// (Conv) operand is ever packed.
package kernels

import (
	"fmt"

	"repro/internal/tensor"
)

// gemmQuantScratch is the scratch GemmQuant works in for a B of k rows
// and n columns: a k×min(n, gemmNC) panel of B's widened codes, four
// rows of scaled A and the scales repeated four times.
func gemmQuantScratch(k, n int64) int64 {
	return k*min(n, gemmNC) + 8*k
}

// GemmQuant computes C[m,n] = A[m,k] × dequant(B)[k,n] where B is
// int8-quantized row-wise over n (Rows=k, Cols=n), overwriting C, in
// scratch of gemmQuantScratch floats. Each gemmNC-wide column block of
// B's codes is widened into a panel, which is exact, and gemmBlock runs
// on it with A scaled instead: column p of A, four rows at a time,
// times Scales[p]. Each c[i,j] then sums the float32 products
// (a·scale)·code in ascending p from +0, bit-identical to Gemm on
// A·diag(Scales) and the codes. The epilogue ep finishes each strip of
// four C rows as gemmBlock writes it.
func GemmQuant(bq *tensor.QuantData, a []float32, m, k, n int64, c, scratch []float32, ep epilogue) {
	if m == 0 {
		return
	}
	panel := scratch[:k*min(n, gemmNC)]
	// Four copies of the scales let one multiply scale four A rows.
	rest := scratch[len(panel):]
	as, scales := rest[:4*k], rest[4*k:8*k]
	for r := int64(0); r < 4; r++ {
		copy(scales[r*k:(r+1)*k], bq.Scales[:k])
	}
	for j := int64(0); j < n; j += gemmNC {
		w := min(gemmNC, n-j)
		for p := int64(0); p < k; p++ {
			widenInt8(panel[p*w:(p+1)*w], bq.Data[p*n+j:p*n+j+w])
		}
		for i := int64(0); i < m; i += 4 {
			rows := min(4, m-i)
			mulInto(as[:rows*k], a[i*k:(i+rows)*k], scales[:rows*k])
			gemmBlock(as, panel, w, c[i*n+j:], n, rows, k, w, ep.cols(j))
		}
	}
}

// widenInt8 sets dst[j] to the int8 code src[j] as a float32.
func widenInt8(dst []float32, src []byte) {
	dst = dst[:len(src)]
	for j, v := range src {
		dst[j] = float32(int8(v))
	}
}

// mulInto sets dst[p] = a[p]·s[p]: Mul's vector loop (mulVec.vv, where
// there is one) over the longest multiple of vecWidth elements, the
// scalar product over the rest. Both are one IEEE multiply per element.
func mulInto(dst, a, s []float32) {
	n := 0
	if mulVec != nil {
		n = len(a) &^ (vecWidth - 1)
		mulVec.vv(dst[:n], a[:n], s[:n])
	}
	for p := n; p < len(a); p++ {
		dst[p] = a[p] * s[p]
	}
}

// GemmQuantLHS computes C[rows,w] = dequant(W)[rowLo:rowHi,k] × B[k,w]
// for a weight matrix quantized row-wise over k (Rows covers the output
// channels, Cols=k) — the conv im2col orientation, where the packed
// operand is the left matrix. The weight rows are dequantized, each
// once, up to four at a time into the caller's scratch (min(4,
// rowHi−rowLo)·k floats) and run through the float32 core as an A of
// that many rows, so the arithmetic is Gemm's on the dequantized filter
// and a group of four rows takes the register tiles. B's rows are ldb
// apart and C's ldc.
func GemmQuantLHS(wq *tensor.QuantData, rowLo, rowHi int64, scratch, b []float32, ldb int64, c []float32, ldc, w int64) {
	k := wq.Cols
	for i := rowLo; i < rowHi; i += 4 {
		m := min(4, rowHi-i)
		for r := int64(0); r < m; r++ {
			wq.DequantRow(i+r, scratch[r*k:(r+1)*k])
		}
		gemmBlock(scratch, b, ldb, c[(i-rowLo)*ldc:], ldc, m, k, w, epilogue{})
	}
}

// matmulQuant is the MatMul path for a quantized weight operand: B must
// be a rank-2 weight [k, n] packed with Rows=k (the reduction dim), and
// A batches broadcast over it. The intra-op budget stripes batch entries
// when there are several and output rows, in whole groups of four,
// otherwise. The scratch is taken from ctx once, one disjoint part per
// stripe. Every stripe finishes its rows with ep.
func matmulQuant(a, b *tensor.Tensor, m, k, nn int64, out *tensor.Tensor, ctx *Ctx, ep epilogue) error {
	if b.Rank() != 2 || b.Q.Rows != k || b.Q.Cols != nn {
		return fmt.Errorf("MatMul: quantized B grid %dx%d does not match [%d,%d]",
			b.Q.Rows, b.Q.Cols, k, nn)
	}
	nBatch := tensor.NumElems(out.Shape[:out.Rank()-2])
	threads := ctx.threads()
	per := gemmQuantScratch(k, nn)
	if threads > 1 && nBatch > 1 {
		count, chunk := stripes(threads, nBatch, 1)
		quantBatchStripes(b.Q, a.F, m, k, nn, out.F, threads, nBatch, chunk, per, ctx.Scratch(count*per), ep)
		return nil
	}
	count, chunk := stripes(threads, (m+3)/4, rowGrain(4*k*nn))
	scratch := ctx.Scratch(count * per)
	for bi := int64(0); bi < nBatch; bi++ {
		ai, ci := a.F[bi*m*k:(bi+1)*m*k], out.F[bi*m*nn:(bi+1)*m*nn]
		if count <= 1 {
			// The stripe closure is a heap allocation per call.
			GemmQuant(b.Q, ai, m, k, nn, ci, scratch, ep)
			continue
		}
		quantRowStripes(b.Q, ai, m, k, nn, ci, threads, chunk, per, scratch, ep)
	}
	return nil
}

// quantBatchStripes runs GemmQuant on each of the nBatch entries, the
// budget striping the entries, stripe s in scratch part s.
func quantBatchStripes(q *tensor.QuantData, a []float32, m, k, nn int64, c []float32, threads int,
	nBatch, chunk, per int64, scratch []float32, ep epilogue) {
	ParallelForGrain(threads, nBatch, 1, func(lo, hi int64) {
		s := scratch[lo/chunk*per : (lo/chunk+1)*per]
		for bi := lo; bi < hi; bi++ {
			GemmQuant(q, a[bi*m*k:(bi+1)*m*k], m, k, nn, c[bi*m*nn:(bi+1)*m*nn], s, ep)
		}
	})
}

// quantRowStripes runs GemmQuant on one batch entry, the budget striping
// its rows in groups of four (as gemmRows does), stripe s in scratch
// part s.
func quantRowStripes(q *tensor.QuantData, a []float32, m, k, nn int64, c []float32, threads int,
	chunk, per int64, scratch []float32, ep epilogue) {
	ParallelForGrain(threads, (m+3)/4, rowGrain(4*k*nn), func(lo, hi int64) {
		s := scratch[lo/chunk*per : (lo/chunk+1)*per]
		lo, hi = 4*lo, min(4*hi, m)
		GemmQuant(q, a[lo*k:hi*k], hi-lo, k, nn, c[lo*nn:hi*nn], s, ep)
	})
}

// binQuantRowwise applies a float binary op where y is quantized and
// shapes match exactly: each storage row of y is dequantized once into
// a scratch row, keeping the live overhead at O(Cols) instead of a full
// float copy of the operand.
func binQuantRowwise(op func(a, b float32) float32, x *tensor.Tensor, y *tensor.Tensor, ctx *Ctx) *tensor.Tensor {
	out := ctx.Out(0, tensor.Float32, x.Shape...)
	q := y.Q
	row := make([]float32, q.Cols)
	for r := int64(0); r < q.Rows; r++ {
		q.DequantRow(r, row)
		base := r * q.Cols
		for j := int64(0); j < q.Cols; j++ {
			out.F[base+j] = op(x.F[base+j], row[j])
		}
	}
	return out
}

// dequantIfNeeded unpacks a quantized operand for kernels without a
// fused path. Activations are never quantized, so this only triggers
// for weight tensors reaching a non-GEMM/CONV op.
func dequantIfNeeded(t *tensor.Tensor) *tensor.Tensor {
	if t != nil && t.DType.IsQuantized() {
		return t.Dequantize()
	}
	return t
}
