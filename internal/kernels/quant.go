// Quantized-weight kernels: GEMM, CONV, and elementwise paths that
// consume int8/Q4 block-quantized weights directly, dequantizing on the
// fly inside the inner loops. Activations stay float32 throughout —
// this is weight-only quantization, so only the B-side (MatMul) or
// filter-side (Conv) operand is ever packed.
package kernels

import (
	"fmt"

	"repro/internal/tensor"
)

// GemmQuant computes C[m,n] = A[m,k] × dequant(B)[k,n] where B is
// quantized row-wise over n (Rows=k, Cols=n). C's old contents are
// overwritten, and the result matches Gemm on the dequantized operand up
// to float rounding.
//
// Int8 runs a fused ikj schedule with the per-row scale hoisted out of
// the inner loop; the 4-bit formats run a pkj schedule that dequantizes
// each B row exactly once into a scratch row shared across all m output
// rows, amortizing the nibble unpacking.
func GemmQuant(bq *tensor.QuantData, a []float32, m, k, n int64, c []float32) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	switch bq.Format {
	case tensor.Int8:
		for i := int64(0); i < m; i++ {
			ci := c[i*n : (i+1)*n]
			ai := a[i*k : (i+1)*k]
			for p := int64(0); p < k; p++ {
				avs := ai[p] * bq.Scales[p]
				// Skipping a zero avs changes no value: int8 codes are
				// finite, and a NaN scale makes avs NaN, not zero.
				if avs == 0 {
					continue
				}
				bp := bq.Data[p*n : (p+1)*n]
				for j := int64(0); j < n; j++ {
					ci[j] += avs * float32(int8(bp[j]))
				}
			}
		}
	default:
		row := make([]float32, n)
		for p := int64(0); p < k; p++ {
			bq.DequantRow(p, row)
			for i := int64(0); i < m; i++ {
				av := a[i*k+p]
				ci := c[i*n : (i+1)*n]
				for j := int64(0); j < n; j++ {
					ci[j] += av * row[j]
				}
			}
		}
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
		gemmBlock(scratch, b, ldb, c[(i-rowLo)*ldc:], ldc, m, k, w)
	}
}

// matmulQuant is the MatMul path for a quantized weight operand: B must
// be a rank-2 weight [k, n] packed with Rows=k (the reduction dim), and
// A batches broadcast over it.
func matmulQuant(a, b *tensor.Tensor, m, k, nn int64, out *tensor.Tensor, threads int) error {
	if b.Rank() != 2 || b.Q.Rows != k || b.Q.Cols != nn {
		return fmt.Errorf("MatMul: quantized B grid %dx%d does not match [%d,%d]",
			b.Q.Rows, b.Q.Cols, k, nn)
	}
	nBatch := out.Len() / (m * nn)
	if int64(threads) > 1 && nBatch > 1 {
		ParallelForGrain(threads, nBatch, 1, func(lo, hi int64) {
			for bi := lo; bi < hi; bi++ {
				GemmQuant(b.Q, a.F[bi*m*k:(bi+1)*m*k], m, k, nn, out.F[bi*m*nn:(bi+1)*m*nn])
			}
		})
		return nil
	}
	for bi := int64(0); bi < nBatch; bi++ {
		if int64(threads) > 1 && m > 1 {
			// Stripe output rows: each stripe reads the shared packed B.
			aOff, oOff := bi*m*k, bi*m*nn
			ParallelForGrain(threads, m, rowGrain(k*nn), func(iLo, iHi int64) {
				GemmQuant(b.Q, a.F[aOff+iLo*k:aOff+iHi*k], iHi-iLo, k, nn,
					out.F[oOff+iLo*nn:oOff+iHi*nn])
			})
			continue
		}
		GemmQuant(b.Q, a.F[bi*m*k:(bi+1)*m*k], m, k, nn, out.F[bi*m*nn:(bi+1)*m*nn])
	}
	return nil
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
