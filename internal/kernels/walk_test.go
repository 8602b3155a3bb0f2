package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The differential oracle for the strided walk. Every kernel that locates
// its operands through a walk is held bit-identical to a reference that
// unravels each flat index with a div/mod chain, the way the kernels did
// before the walk existed.

// refBroadcastIndex is the retired tensor.BroadcastIndex: it maps a flat
// row-major index into dst back to the flat index in a tensor of shape
// src that is broadcast to dst.
func refBroadcastIndex(src, dst []int64, outIdx int64) int64 {
	dstStrides := tensor.Strides(dst)
	srcStrides := tensor.Strides(src)
	var srcOff int64
	pad := len(dst) - len(src)
	rem := outIdx
	for i := 0; i < len(dst); i++ {
		coord := rem / dstStrides[i]
		rem = rem % dstStrides[i]
		if i >= pad {
			j := i - pad
			if src[j] != 1 {
				srcOff += coord * srcStrides[j]
			}
		}
	}
	return srcOff
}

// refUnravel turns a flat row-major index into a multi-index.
func refUnravel(shape []int64, flat int64) []int64 {
	idx := make([]int64, len(shape))
	for i := len(shape) - 1; i >= 0; i-- {
		idx[i] = flat % shape[i]
		flat /= shape[i]
	}
	return idx
}

func randTensor(rng *tensor.RNG, dt tensor.DType, shape []int64) *tensor.Tensor {
	t := tensor.New(dt, shape...)
	for i := range t.F {
		t.F[i] = rng.NormFloat32()
	}
	for i := range t.I {
		t.I[i] = int64(rng.Intn(9)) - 4
	}
	for i := range t.B {
		t.B[i] = rng.Intn(2) == 0
	}
	return t
}

func randShape(rng *tensor.RNG, maxRank int, extents []int64) []int64 {
	shape := make([]int64, rng.Intn(maxRank+1))
	for i := range shape {
		shape[i] = extents[rng.Intn(len(extents))]
	}
	return shape
}

// randOperand derives from full a shape that broadcasts to it: leading
// dims dropped, others collapsed to 1.
func randOperand(rng *tensor.RNG, full []int64) []int64 {
	s := append([]int64{}, full[rng.Intn(len(full)+1):]...)
	for i := range s {
		if rng.Intn(3) == 0 {
			s[i] = 1
		}
	}
	return s
}

func sameBits(t *testing.T, tag string, got, want *tensor.Tensor) {
	t.Helper()
	if got.DType != want.DType || !tensor.SameShape(got.Shape, want.Shape) {
		t.Fatalf("%s: got %v%v want %v%v", tag, got.DType, got.Shape, want.DType, want.Shape)
	}
	for i := range want.F {
		if math.Float32bits(got.F[i]) != math.Float32bits(want.F[i]) {
			t.Fatalf("%s: F[%d] = %v want %v", tag, i, got.F[i], want.F[i])
		}
	}
	for i := range want.I {
		if got.I[i] != want.I[i] {
			t.Fatalf("%s: I[%d] = %v want %v", tag, i, got.I[i], want.I[i])
		}
	}
	for i := range want.B {
		if got.B[i] != want.B[i] {
			t.Fatalf("%s: B[%d] = %v want %v", tag, i, got.B[i], want.B[i])
		}
	}
}

// broadcastPairs is the table of operand-shape pairs every broadcasting
// kernel is run on, before the random ones.
var broadcastPairs = [][2][]int64{
	{{2, 3}, {2, 3}},                // same shape
	{{2, 3}, {}},                    // scalar
	{{}, {}},                        // both scalar
	{{4, 5, 6}, {6}},                // trailing bias, rank-mismatched
	{{4, 5, 6}, {5, 1}},             // trailing broadcast dim
	{{4, 1, 6}, {4, 5, 6}},          // middle broadcast dim
	{{1, 5, 6}, {4, 5, 6}},          // leading broadcast dim
	{{4, 1, 6}, {1, 5, 1}},          // both sides broadcast
	{{4, 5, 1}, {6}},                // neither side has the output shape
	{{1}, {1, 1, 1}},                // all ones
	{{0, 3}, {1, 3}},                // zero extent
	{{2, 0, 3}, {3}},                // zero extent, rank-mismatched
	{{3, 1, 2, 1, 2}, {2, 1, 2, 2}}, // rank 5
	{{41, 1, 65}, {1, 33, 65}},      // big enough for four stripes, cut mid-row
}

func allBroadcastPairs(rng *tensor.RNG) [][2][]int64 {
	pairs := append([][2][]int64{}, broadcastPairs...)
	for i := 0; i < 60; i++ {
		full := randShape(rng, 4, []int64{0, 1, 2, 3, 5})
		pairs = append(pairs, [2][]int64{randOperand(rng, full), randOperand(rng, full)})
	}
	return pairs
}

// refBinary is the unravelling reference of a broadcasting binary kernel.
func refBinary[T, U any](op func(a, b T) U, x, y []T, xs, ys []int64, out []U, shape []int64) {
	for i := range out {
		out[i] = op(x[refBroadcastIndex(xs, shape, int64(i))], y[refBroadcastIndex(ys, shape, int64(i))])
	}
}

func TestWalkDifferential(t *testing.T) {
	t.Run("cursor", testCursorEverySplit)
	t.Run("binary", testBinaryDifferential)
	t.Run("where", testWhereDifferential)
	t.Run("expand", testExpandDifferential)
	t.Run("transpose", testTransposeDifferential)
	t.Run("slice", testSliceDifferential)
	t.Run("pad-tile", testPadTileDifferential)
	t.Run("reduce", testReduceDifferential)
	t.Run("gemm-matmul", testGemmMatMulDifferential)
	t.Run("scatter", testScatterDifferential)
}

// testCursorEverySplit drives the walk itself: over broadcast, permuted
// and (negative-step) sliced operands, every [lo,hi) stripe must visit
// exactly the offsets the unravelled index gives.
func testCursorEverySplit(t *testing.T) {
	rng := tensor.NewRNG(11)
	for iter := 0; iter < 300; iter++ {
		shape := randShape(rng, 4, []int64{0, 1, 2, 3, 4})
		n := tensor.NumElems(shape)
		if n > 48 {
			continue
		}
		src := make([]int64, len(shape)) // the shape a sliced or permuted operand is cut from
		start, step := make([]int64, len(shape)), make([]int64, len(shape))
		perm := make([]int64, len(shape))
		for i, e := range shape {
			perm[i] = int64(i)
			step[i] = int64(rng.Intn(3)) + 1
			src[i] = e*step[i] + int64(rng.Intn(2))
			if rng.Intn(2) == 0 && src[i] > 0 { // walk this dim backwards
				start[i], step[i] = src[i]-1, -step[i]
			}
		}
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		permuted := make([]int64, len(shape)) // permuted[perm[i]] = shape[i]
		for i, p := range perm {
			permuted[p] = shape[i]
		}
		sliced, sliceBase := tensor.SliceStrides(src, start, step)
		strides := [][]int64{
			tensor.Strides(shape),
			tensor.BroadcastStrides(randOperand(rng, shape), shape),
			tensor.PermuteStrides(permuted, perm),
			sliced,
		}
		w := newWalk(shape, strides...)
		w.base[3] = sliceBase
		want := make([][maxOperands]int64, n)
		for flat := range want {
			idx := refUnravel(shape, int64(flat))
			for k, s := range strides {
				want[flat][k] = w.base[k] + tensor.Offset(s, idx)
			}
		}
		for lo := int64(0); lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				flat := lo
				for c := w.seek(lo, hi); c.next(); {
					if c.n <= 0 {
						t.Fatalf("shape %v [%d,%d): empty run", shape, lo, hi)
					}
					if flat+c.n > hi {
						t.Fatalf("shape %v [%d,%d): run of %d at %d overruns the stripe", shape, lo, hi, c.n, flat)
					}
					for i := int64(0); i < c.n; i++ {
						for k := range strides {
							if got := c.off[k] + i*w.inner(k); got != want[flat][k] {
								t.Fatalf("shape %v strides %v [%d,%d): flat %d operand %d at %d, want %d",
									shape, strides, lo, hi, flat, k, got, want[flat][k])
							}
						}
						flat++
					}
				}
				if flat != hi {
					t.Fatalf("shape %v [%d,%d): walk stopped at %d", shape, lo, hi, flat)
				}
			}
		}
	}
}

func testBinaryDifferential(t *testing.T) {
	rng := tensor.NewRNG(12)
	for _, p := range allBroadcastPairs(rng) {
		shape, err := tensor.BroadcastShapes(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprint(p[0], p[1])
		xf, yf := randTensor(rng, tensor.Float32, p[0]), randTensor(rng, tensor.Float32, p[1])
		xi, yi := randTensor(rng, tensor.Int64, p[0]), randTensor(rng, tensor.Int64, p[1])
		xb, yb := randTensor(rng, tensor.Bool, p[0]), randTensor(rng, tensor.Bool, p[1])

		want := tensor.New(tensor.Float32, shape...)
		refBinary(func(a, b float32) float32 { return a + b }, xf.F, yf.F, p[0], p[1], want.F, shape)
		wantMul := tensor.New(tensor.Float32, shape...)
		refBinary(func(a, b float32) float32 { return a * b }, xf.F, yf.F, p[0], p[1], wantMul.F, shape)
		for threads := 1; threads <= 4; threads++ {
			sameBits(t, fmt.Sprint("Add f32 ", tag, " threads ", threads), runOp(t, "Add", nil, threads, xf, yf), want)
			sameBits(t, fmt.Sprint("Mul f32 ", tag, " threads ", threads), runOp(t, "Mul", nil, threads, xf, yf), wantMul)
		}

		want = tensor.New(tensor.Int64, shape...)
		refBinary(func(a, b int64) int64 { return a - b }, xi.I, yi.I, p[0], p[1], want.I, shape)
		sameBits(t, "Sub i64 "+tag, runOp(t, "Sub", nil, 1, xi, yi), want)

		want = tensor.New(tensor.Bool, shape...)
		refBinary(func(a, b float32) bool { return a < b }, xf.F, yf.F, p[0], p[1], want.B, shape)
		sameBits(t, "Less f32 "+tag, runOp(t, "Less", nil, 1, xf, yf), want)
		refBinary(func(a, b int64) bool { return a >= b }, xi.I, yi.I, p[0], p[1], want.B, shape)
		sameBits(t, "GreaterOrEqual i64 "+tag, runOp(t, "GreaterOrEqual", nil, 1, xi, yi), want)
		refBinary(func(a, b bool) bool { return a != b }, xb.B, yb.B, p[0], p[1], want.B, shape)
		sameBits(t, "Xor "+tag, runOp(t, "Xor", nil, 1, xb, yb), want)
	}
}

func testWhereDifferential(t *testing.T) {
	rng := tensor.NewRNG(13)
	for iter := 0; iter < 120; iter++ {
		full := randShape(rng, 4, []int64{0, 1, 2, 3, 5})
		cs, xs, ys := randOperand(rng, full), randOperand(rng, full), randOperand(rng, full)
		s1, _ := tensor.BroadcastShapes(cs, xs)
		shape, err := tensor.BroadcastShapes(s1, ys)
		if err != nil {
			t.Fatal(err)
		}
		cond := randTensor(rng, tensor.Bool, cs)
		for _, dt := range []tensor.DType{tensor.Float32, tensor.Int64, tensor.Bool} {
			x, y := randTensor(rng, dt, xs), randTensor(rng, dt, ys)
			want := tensor.New(dt, shape...)
			for i := int64(0); i < want.Len(); i++ {
				src, si := y, refBroadcastIndex(ys, shape, i)
				if cond.B[refBroadcastIndex(cs, shape, i)] {
					src, si = x, refBroadcastIndex(xs, shape, i)
				}
				switch dt {
				case tensor.Float32:
					want.F[i] = src.F[si]
				case tensor.Int64:
					want.I[i] = src.I[si]
				case tensor.Bool:
					want.B[i] = src.B[si]
				}
			}
			sameBits(t, fmt.Sprint("Where ", dt, cs, xs, ys), runOp(t, "Where", nil, 1, cond, x, y), want)
		}
	}
}

// refGather builds the tensor whose element i is x's element srcOf(i).
func refGather(x *tensor.Tensor, shape []int64, srcOf func(flat int64) int64) *tensor.Tensor {
	out := tensor.New(x.DType, shape...)
	for i := int64(0); i < out.Len(); i++ {
		switch x.DType {
		case tensor.Float32:
			out.F[i] = x.F[srcOf(i)]
		case tensor.Int64:
			out.I[i] = x.I[srcOf(i)]
		case tensor.Bool:
			out.B[i] = x.B[srcOf(i)]
		}
	}
	return out
}

var walkDTypes = []tensor.DType{tensor.Float32, tensor.Int64, tensor.Bool}

func testExpandDifferential(t *testing.T) {
	rng := tensor.NewRNG(14)
	for _, p := range allBroadcastPairs(rng) {
		shape, _ := tensor.BroadcastShapes(p[0], p[1])
		x := randTensor(rng, walkDTypes[rng.Intn(3)], p[0])
		want := refGather(x, shape, func(i int64) int64 { return refBroadcastIndex(p[0], shape, i) })
		target := tensor.FromInts([]int64{int64(len(p[1]))}, p[1])
		sameBits(t, fmt.Sprint("Expand ", p[0], p[1]), runOp(t, "Expand", nil, 1, x, target), want)
	}
}

func testTransposeDifferential(t *testing.T) {
	rng := tensor.NewRNG(15)
	for iter := 0; iter < 200; iter++ {
		shape := randShape(rng, 5, []int64{0, 1, 2, 3, 4, 7})
		x := randTensor(rng, walkDTypes[rng.Intn(3)], shape)
		perm := make([]int64, len(shape))
		for i := range perm {
			perm[i] = int64(len(shape) - 1 - i) // the kernel's default
		}
		var attrs map[string]graph.AttrValue
		if iter%4 != 0 {
			for i := range perm {
				j := rng.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			attrs = map[string]graph.AttrValue{"perm": graph.IntsAttr(perm...)}
		}
		outShape := make([]int64, len(shape))
		for i, p := range perm {
			outShape[i] = shape[p]
		}
		inStrides := tensor.Strides(shape)
		want := refGather(x, outShape, func(flat int64) int64 {
			var src int64
			for i, c := range refUnravel(outShape, flat) {
				src += c * inStrides[perm[i]]
			}
			return src
		})
		sameBits(t, fmt.Sprint("Transpose ", shape, perm), runOp(t, "Transpose", attrs, 1, x), want)
	}
}

// testSliceDifferential runs the Slice kernel forward on in-range
// positive steps, then backward over the same elements with negative
// steps.
func testSliceDifferential(t *testing.T) {
	rng := tensor.NewRNG(16)
	for iter := 0; iter < 200; iter++ {
		shape := randShape(rng, 4, []int64{0, 1, 2, 3, 5, 8})
		x := randTensor(rng, walkDTypes[rng.Intn(3)], shape)
		rank := len(shape)
		start, end, step := make([]int64, rank), make([]int64, rank), make([]int64, rank)
		axes, count := make([]int64, rank), make([]int64, rank)
		for i, d := range shape {
			start[i] = int64(rng.Intn(int(d) + 1))
			end[i] = start[i] + int64(rng.Intn(int(d-start[i])+1))
			step[i] = int64(rng.Intn(3)) + 1
			count[i] = (end[i] - start[i] + step[i] - 1) / step[i]
			axes[i] = int64(i)
			if rng.Intn(2) == 0 {
				axes[i] -= int64(rank)
			}
		}
		inStrides := tensor.Strides(shape)
		ref := func() *tensor.Tensor {
			return refGather(x, count, func(flat int64) int64 {
				var src int64
				for i, c := range refUnravel(count, flat) {
					src += (start[i] + c*step[i]) * inStrides[i]
				}
				return src
			})
		}
		vec := func(v []int64) *tensor.Tensor { return tensor.FromInts([]int64{int64(rank)}, v) }
		sameBits(t, fmt.Sprint("Slice ", shape, start, end, step),
			runOp(t, "Slice", nil, 1, x, vec(start), vec(end), vec(axes), vec(step)), ref())

		// Reverse every dim: start from the last element taken and step
		// back to just before the first one (past the front of the axis
		// when that is element 0, as ONNX exporters write it).
		for i := range shape {
			switch {
			case count[i] == 0:
				end[i] = start[i]
			case start[i] == 0:
				end[i] = math.MinInt64
			default:
				end[i] = start[i] - 1
			}
			if count[i] > 0 {
				start[i] += (count[i] - 1) * step[i]
			}
			step[i] = -step[i]
		}
		sameBits(t, fmt.Sprint("reversed Slice ", shape, start, end, step),
			runOp(t, "Slice", nil, 1, x, vec(start), vec(end), vec(axes), vec(step)), ref())
	}
}

func testPadTileDifferential(t *testing.T) {
	rng := tensor.NewRNG(17)
	for iter := 0; iter < 200; iter++ {
		shape := randShape(rng, 4, []int64{0, 1, 2, 3, 5})
		rank := len(shape)
		x := randTensor(rng, tensor.Float32, shape)

		pads := make([]int64, 2*rank)
		outShape := make([]int64, rank)
		for i := range pads {
			pads[i] = int64(rng.Intn(3))
		}
		for i := range outShape {
			outShape[i] = shape[i] + pads[i] + pads[rank+i]
		}
		want := tensor.New(tensor.Float32, outShape...)
		want.Fill(-2.5)
		outStrides := tensor.Strides(outShape)
		for flat := int64(0); flat < x.Len(); flat++ {
			var dst int64
			for i, c := range refUnravel(shape, flat) {
				dst += (c + pads[i]) * outStrides[i]
			}
			want.F[dst] = x.F[flat]
		}
		sameBits(t, fmt.Sprint("Pad ", shape, pads),
			runOp(t, "Pad", map[string]graph.AttrValue{"pads": graph.IntsAttr(pads...)}, 1, x, nil, tensor.Scalar(-2.5)), want)

		xt := randTensor(rng, walkDTypes[rng.Intn(3)], shape)
		reps := make([]int64, rank)
		for i := range reps {
			reps[i] = int64(rng.Intn(4))
			outShape[i] = shape[i] * reps[i]
		}
		inStrides := tensor.Strides(shape)
		want = refGather(xt, outShape, func(flat int64) int64 {
			var src int64
			for i, c := range refUnravel(outShape, flat) {
				src += (c % shape[i]) * inStrides[i]
			}
			return src
		})
		sameBits(t, fmt.Sprint("Tile ", shape, reps),
			runOp(t, "Tile", nil, 1, xt, tensor.FromInts([]int64{int64(rank)}, reps)), want)
	}
}

func testReduceDifferential(t *testing.T) {
	ops := []struct {
		name   string
		init   float32
		acc    func(a, v float32) float32
		finish func(a float32, n int64) float32
	}{
		{"ReduceSum", 0, func(a, v float32) float32 { return a + v }, nil},
		{"ReduceMean", 0, func(a, v float32) float32 { return a + v }, func(a float32, n int64) float32 { return a / float32(n) }},
		{"ReduceMax", float32(math.Inf(-1)), maxf, nil},
		{"ReduceProd", 1, func(a, v float32) float32 { return a * v }, nil},
		{"ReduceL2", 0, func(a, v float32) float32 { return a + v*v }, func(a float32, n int64) float32 { return float32(math.Sqrt(float64(a))) }},
	}
	rng := tensor.NewRNG(18)
	for iter := 0; iter < 300; iter++ {
		shape := randShape(rng, 4, []int64{0, 1, 2, 3, 5, 9})
		x := randTensor(rng, tensor.Float32, shape)
		op := ops[rng.Intn(len(ops))]
		keep := int64(rng.Intn(2))
		var axes []int64
		reduced := make([]bool, len(shape))
		for i := range shape {
			if rng.Intn(2) == 0 {
				axes = append(axes, int64(i)-int64(rng.Intn(2)*len(shape)))
				reduced[i] = true
			}
		}
		if len(axes) == 0 { // no axes means all of them
			for i := range reduced {
				reduced[i] = true
			}
		}
		var outShape, keptStrides []int64
		count := int64(1)
		for i, d := range shape {
			switch {
			case !reduced[i]:
				outShape = append(outShape, d)
			case keep == 1:
				outShape = append(outShape, 1)
			}
			if reduced[i] {
				count *= d
			}
		}
		stride := int64(1)
		keptStrides = make([]int64, len(shape))
		for i := len(shape) - 1; i >= 0; i-- {
			if !reduced[i] {
				keptStrides[i] = stride
				stride *= shape[i]
			}
		}
		want := tensor.New(tensor.Float32, outShape...)
		want.Fill(op.init)
		for flat := int64(0); flat < x.Len(); flat++ {
			dst := tensor.Offset(keptStrides, refUnravel(shape, flat))
			want.F[dst] = op.acc(want.F[dst], x.F[flat])
		}
		if op.finish != nil {
			for i := range want.F {
				want.F[i] = op.finish(want.F[i], count)
			}
		}
		attrs := map[string]graph.AttrValue{"keepdims": graph.IntAttr(keep)}
		if axes != nil {
			attrs["axes"] = graph.IntsAttr(axes...)
		}
		sameBits(t, fmt.Sprint(op.name, shape, axes, keep), runOp(t, op.name, attrs, 1, x), want)
	}
}

func testGemmMatMulDifferential(t *testing.T) {
	rng := tensor.NewRNG(19)
	const m, k, n = 5, 4, 6
	a, b := randTensor(rng, tensor.Float32, []int64{m, k}), randTensor(rng, tensor.Float32, []int64{k, n})
	attrs := map[string]graph.AttrValue{"beta": graph.FloatAttr(0.5)}
	for _, cs := range [][]int64{{}, {1}, {n}, {1, n}, {m, 1}, {m, n}} {
		c := randTensor(rng, tensor.Float32, cs)
		want := runOp(t, "Gemm", attrs, 1, a, b)
		for i := range want.F {
			want.F[i] += 0.5 * c.F[refBroadcastIndex(cs, want.Shape, int64(i))]
		}
		sameBits(t, fmt.Sprint("Gemm bias ", cs), runOp(t, "Gemm", attrs, 1, a, b, c), want)
	}

	// MatMul's batch offsets: every broadcast pairing of batch dims.
	for _, p := range [][2][]int64{
		{{}, {}}, {{3}, {}}, {{}, {3}}, {{2, 3}, {3}}, {{2, 1}, {1, 3}}, {{2, 1, 3}, {4, 1}},
		{{0}, {1}}, {{2, 3}, {2, 3}}, {{1, 1}, {2, 2}},
	} {
		diffMatMul(t,
			randTensor(rng, tensor.Float32, append(append([]int64{}, p[0]...), m, k)),
			randTensor(rng, tensor.Float32, append(append([]int64{}, p[1]...), k, n)))
	}
}

func testScatterDifferential(t *testing.T) {
	rng := tensor.NewRNG(20)
	for iter := 0; iter < 100; iter++ {
		shape := randShape(rng, 3, []int64{1, 2, 3, 5})
		if len(shape) == 0 {
			continue
		}
		axis := int64(rng.Intn(len(shape)))
		idxShape := make([]int64, len(shape))
		for i, d := range shape {
			idxShape[i] = int64(rng.Intn(int(d) + 1))
		}
		data := randTensor(rng, tensor.Float32, shape)
		updates := randTensor(rng, tensor.Float32, idxShape)
		indices := tensor.New(tensor.Int64, idxShape...)
		for i := range indices.I {
			indices.I[i] = int64(rng.Intn(int(2*shape[axis]))) - shape[axis]
		}
		want := data.Clone()
		strides := tensor.Strides(shape)
		for flat := int64(0); flat < indices.Len(); flat++ {
			coord := refUnravel(idxShape, flat)
			coord[axis] = (indices.I[flat] + shape[axis]) % shape[axis]
			want.F[tensor.Offset(strides, coord)] = updates.F[flat]
		}
		sameBits(t, fmt.Sprint("ScatterElements ", shape, idxShape, axis),
			runOp(t, "ScatterElements", map[string]graph.AttrValue{"axis": graph.IntAttr(axis)}, 1, data, indices, updates), want)
	}
}

// walkBenchCases are the broadcasting and transposing calls whose
// allocation count is pinned and whose speed the benchmarks report, each
// built at a given element count.
var walkBenchCases = []struct {
	name  string
	op    string
	attrs map[string]graph.AttrValue
	in    func(rng *tensor.RNG, n int64) []*tensor.Tensor
}{
	{"BroadcastTrailingBias", "Add", nil, func(rng *tensor.RNG, n int64) []*tensor.Tensor {
		return []*tensor.Tensor{randTensor(rng, tensor.Float32, []int64{n / 256, 256}), randTensor(rng, tensor.Float32, []int64{256})}
	}},
	{"BroadcastScalar", "Mul", nil, func(rng *tensor.RNG, n int64) []*tensor.Tensor {
		return []*tensor.Tensor{randTensor(rng, tensor.Float32, []int64{n / 256, 256}), tensor.Scalar(0.125)}
	}},
	{"BroadcastMidDim", "Less", nil, func(rng *tensor.RNG, n int64) []*tensor.Tensor {
		return []*tensor.Tensor{randTensor(rng, tensor.Float32, []int64{n / 256, 1, 16}), randTensor(rng, tensor.Float32, []int64{1, 16, 16})}
	}},
	{"BroadcastWhere", "Where", nil, func(rng *tensor.RNG, n int64) []*tensor.Tensor {
		return []*tensor.Tensor{randTensor(rng, tensor.Bool, []int64{1, 16, 16}),
			randTensor(rng, tensor.Float32, []int64{n / 256, 16, 16}), tensor.Scalar(-1e9)}
	}},
	{"TransposeLast2", "Transpose", map[string]graph.AttrValue{"perm": graph.IntsAttr(0, 2, 1)},
		func(rng *tensor.RNG, n int64) []*tensor.Tensor {
			return []*tensor.Tensor{randTensor(rng, tensor.Float32, []int64{n / 256, 16, 16})}
		}},
	{"TransposePerm0213", "Transpose", map[string]graph.AttrValue{"perm": graph.IntsAttr(0, 2, 1, 3)},
		func(rng *tensor.RNG, n int64) []*tensor.Tensor {
			return []*tensor.Tensor{randTensor(rng, tensor.Float32, []int64{n / 512, 2, 4, 64})}
		}},
}

// TestWalkAllocsIndependentOfSize pins the walk's contract: a kernel
// call allocates for its output and O(rank) bookkeeping, never per
// element.
func TestWalkAllocsIndependentOfSize(t *testing.T) {
	rng := tensor.NewRNG(21)
	for _, bc := range walkBenchCases {
		node := &graph.Node{Name: "t", OpType: bc.op, Attrs: bc.attrs}
		var allocs [2]float64
		for i, n := range []int64{1 << 10, 1 << 20} {
			in := bc.in(rng, n)
			allocs[i] = testing.AllocsPerRun(2, func() {
				if _, err := Run(node, in, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] || allocs[0] > 32 {
			t.Errorf("%s: %v allocations at 1 Ki elements, %v at 1 Mi", bc.name, allocs[0], allocs[1])
		}
	}
}

func benchWalk(b *testing.B, name string) {
	for _, bc := range walkBenchCases {
		if bc.name != name {
			continue
		}
		node := &graph.Node{Name: "b", OpType: bc.op, Attrs: bc.attrs}
		in := bc.in(tensor.NewRNG(22), 1<<18)
		b.ReportAllocs()
		b.SetBytes(4 << 18)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(node, in, nil); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("no case %s", name)
}

func BenchmarkBroadcastTrailingBias(b *testing.B) { benchWalk(b, "BroadcastTrailingBias") }
func BenchmarkBroadcastScalar(b *testing.B)       { benchWalk(b, "BroadcastScalar") }
func BenchmarkBroadcastMidDim(b *testing.B)       { benchWalk(b, "BroadcastMidDim") }
func BenchmarkBroadcastWhere(b *testing.B)        { benchWalk(b, "BroadcastWhere") }
func BenchmarkTransposeLast2(b *testing.B)        { benchWalk(b, "TransposeLast2") }
func BenchmarkTransposePerm0213(b *testing.B)     { benchWalk(b, "TransposePerm0213") }
