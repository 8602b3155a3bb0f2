package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The scalar definitions of the float binary ops the kernel table runs
// through binRuns, written out here so that TestElementwiseBodiesAgree
// judges the kernels and Add's and Mul's vector loops against something
// other than their own code.
var elementwiseDefs = []struct {
	op  string
	def func(a, b float32) float32
}{
	{"Add", func(a, b float32) float32 { return a + b }},
	{"Sub", func(a, b float32) float32 { return a - b }},
	{"Mul", func(a, b float32) float32 { return a * b }},
	{"Div", func(a, b float32) float32 { return a / b }},
	{"Max", func(a, b float32) float32 {
		if a > b {
			return a
		}
		return b
	}},
	{"Min", func(a, b float32) float32 {
		if a < b {
			return a
		}
		return b
	}},
}

func reluDef(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

var (
	negZero = math.Float32frombits(0x80000000)
	sNaN    = math.Float32frombits(0x7fa00001)
	// elementwiseSpecials salts the operands: NaNs (quiet, negative,
	// signalling), ±Inf, ±0, denormals and ±MaxFloat32.
	elementwiseSpecials = []float32{
		float32(math.NaN()), math.Float32frombits(0xffc00123), sNaN,
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, negZero,
		math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32, 1e-40,
		math.MaxFloat32, -math.MaxFloat32, 1, -1,
	}
)

// elementwiseVal draws a normal value, or a special one a third of the
// time.
func elementwiseVal(rng *tensor.RNG) float32 {
	if rng.Intn(3) == 0 {
		return elementwiseSpecials[rng.Intn(len(elementwiseSpecials))]
	}
	return rng.NormFloat32()
}

// sameElem reports whether got is want bit for bit. When both operands
// are NaNs only a NaN is required: which payload survives is up to the
// operand order the compiler picks for the scalar definition.
func sameElem(got, want, a, b float32) bool {
	if math.Float32bits(got) == math.Float32bits(want) {
		return true
	}
	return a != a && b != b && got != got
}

// elementwiseLens covers zero to two 8-lane iterations with every tail,
// then a long run with every tail.
func elementwiseLens() []int {
	var ns []int
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	for n := 1000; n <= 1007; n++ {
		ns = append(ns, n)
	}
	return ns
}

// Every vector loop agrees with its op's scalar definition bit for bit:
// Add's and Mul's run through binRuns, as the kernels run them, at every
// length of elementwiseLens, every operand at its own unaligned offset
// into a larger slice, with a broadcast scalar on either side; Relu's
// runs whole. No loop writes past its run. The kernel-table half drives
// every op of elementwiseDefs and Relu through Run at thread
// budgets 1–4 against the definitions written out above, and pins the
// NaN and signed-zero semantics.
func TestElementwiseBodiesAgree(t *testing.T) {
	t.Run("bodies", testRunBodies)
	t.Run("kernels", testElementwiseKernels)
}

func testRunBodies(t *testing.T) {
	rng := tensor.NewRNG(43)
	const guard = 3
	operand := func(n, off int) []float32 {
		s := make([]float32, off+n+guard)
		for i := range s {
			s[i] = elementwiseVal(rng)
		}
		return s[off : off+n]
	}
	// out returns an unaligned destination of n elements followed by
	// guard sentinels, and check verifies both.
	out := func(n, off int) []float32 {
		s := make([]float32, off+n+guard)
		for i := range s {
			s[i] = -7
		}
		return s[off : off+n]
	}
	check := func(tag string, got []float32, x, y func(i int) float32, def func(a, b float32) float32) {
		t.Helper()
		for i := range got {
			a, b := x(i), y(i)
			if want := def(a, b); !sameElem(got[i], want, a, b) {
				t.Fatalf("%s: o[%d] = %v (%#x) for (%v, %v), want %v (%#x)",
					tag, i, got[i], math.Float32bits(got[i]), a, b, want, math.Float32bits(want))
			}
		}
		for i, v := range got[len(got) : len(got)+guard] {
			if v != -7 {
				t.Fatalf("%s: wrote %v past the run at +%d", tag, v, i)
			}
		}
	}
	// runs walks one run of n elements with x and y stepping by sx and
	// sy, as binRuns meets it in a kernel.
	runs := func(def func(a, b float32) float32, vec *vecBodies[float32, float32], o, x, y []float32, sx, sy int64) {
		n := int64(len(o))
		w := newWalk([]int64{n}, []int64{1}, []int64{sx}, []int64{sy})
		c := w.seek(0, n)
		binRuns(def, vec, o, x, y, &c)
	}
	vec := func(v []float32) func(int) float32 { return func(i int) float32 { return v[i] } }
	defs := map[string]func(a, b float32) float32{}
	for _, d := range elementwiseDefs {
		defs[d.op] = d.def
	}
	for _, b := range []struct {
		op  string
		vec *vecBodies[float32, float32]
	}{
		{"Add", addVec},
		{"Mul", mulVec},
	} {
		def := defs[b.op]
		for _, n := range elementwiseLens() {
			for off := 0; off < 4; off++ {
				tag := fmt.Sprintf("%s len %d offset %d", b.op, n, off)
				x, y, s := operand(n, off), operand(n, (off+1)%4), operand(1, off)
				scalar := func(int) float32 { return s[0] }

				got := out(n, (off+2)%4)
				runs(def, b.vec, got, x, y, 1, 1)
				check(tag+" vv", got, vec(x), vec(y), def)
				got = out(n, (off+3)%4)
				runs(def, b.vec, got, x, s, 1, 0)
				check(tag+" vs", got, vec(x), scalar, def)
				got = out(n, off)
				runs(def, b.vec, got, s, y, 0, 1)
				check(tag+" sv", got, scalar, vec(y), def)
			}
		}
		// A run whose operand steps by neither 0 nor 1 goes through op:
		// y walked as the transpose of a [5, 3] tensor.
		x, y, got := operand(15, 1), operand(15, 2), out(15, 3)
		w := newWalk([]int64{3, 5}, []int64{5, 1}, []int64{5, 1}, []int64{1, 3})
		c := w.seek(0, w.n)
		binRuns(def, b.vec, got, x, y, &c)
		check(b.op+" strided", got, vec(x), func(i int) float32 { return y[i%5*3+i/5] }, def)
	}
	for _, n := range elementwiseLens() {
		for off := 0; off < 4; off++ {
			x, got := operand(n, off), out(n, (off+1)%4)
			relu(got, x)
			check(fmt.Sprintf("Relu len %d offset %d", n, off), got, vec(x), func(int) float32 { return 0 },
				func(a, _ float32) float32 { return reluDef(a) })
		}
	}
}

func testElementwiseKernels(t *testing.T) {
	rng := tensor.NewRNG(44)
	filled := func(shape ...int64) *tensor.Tensor {
		x := tensor.New(tensor.Float32, shape...)
		for i := range x.F {
			x.F[i] = elementwiseVal(rng)
		}
		return x
	}
	// Every length of elementwiseLens, plus one long enough that four
	// threads cut it into stripes mid-run.
	var lens []int64
	for _, n := range elementwiseLens() {
		lens = append(lens, int64(n))
	}
	lens = append(lens, 3*parGrain+5)
	// operands lists, per element of the broadcast of x and y, the pair
	// of inputs it is computed from.
	operands := func(x, y *tensor.Tensor) (shape []int64, as, bs []float32) {
		shape, err := tensor.BroadcastShapes(x.Shape, y.Shape)
		if err != nil {
			t.Fatal(err)
		}
		xs, ys := tensor.BroadcastStrides(x.Shape, shape), tensor.BroadcastStrides(y.Shape, shape)
		as, bs = make([]float32, tensor.NumElems(shape)), make([]float32, tensor.NumElems(shape))
		for i := range as {
			idx := refUnravel(shape, int64(i))
			as[i], bs[i] = x.F[tensor.Offset(xs, idx)], y.F[tensor.Offset(ys, idx)]
		}
		return shape, as, bs
	}
	same := func(tag string, got *tensor.Tensor, shape []int64, as, bs []float32, def func(a, b float32) float32) {
		t.Helper()
		if !tensor.SameShape(got.Shape, shape) {
			t.Fatalf("%s: shape %v want %v", tag, got.Shape, shape)
		}
		for i, a := range as {
			if want := def(a, bs[i]); !sameElem(got.F[i], want, a, bs[i]) {
				t.Fatalf("%s: [%d] = %v (%#x) for (%v, %v), want %v (%#x)",
					tag, i, got.F[i], math.Float32bits(got.F[i]), a, bs[i], want, math.Float32bits(want))
			}
		}
	}
	for _, d := range elementwiseDefs {
		for _, n := range lens {
			cases := [][2]*tensor.Tensor{
				{filled(n), filled(n)},          // contiguous × contiguous
				{filled(n), filled()},           // scalar on the right
				{filled(), filled(n)},           // scalar on the left
				{filled(3, n), filled(n)},       // trailing bias
				{filled(n, 1), filled(1, n%5)},  // outer product: x broadcast along each row
				{filled(2, 1, n), filled(2, n)}, // middle broadcast
			}
			for _, c := range cases {
				shape, as, bs := operands(c[0], c[1])
				for threads := 1; threads <= 4; threads++ {
					got := runOp(t, d.op, nil, threads, c[0], c[1])
					same(fmt.Sprintf("%s %v×%v threads %d", d.op, c[0].Shape, c[1].Shape, threads), got, shape, as, bs, d.def)
				}
			}
		}
	}
	for _, n := range lens {
		x := filled(1, n)
		shape, as, bs := operands(x, tensor.Scalar(0))
		for threads := 1; threads <= 4; threads++ {
			got := runOp(t, "Relu", nil, threads, x)
			same(fmt.Sprintf("Relu [%d] threads %d", n, threads), got, shape, as, bs,
				func(a, _ float32) float32 { return reluDef(a) })
		}
	}

	// The pins, sixteen lanes wide so the vector loops meet them too.
	nan := float32(math.NaN())
	repeat := func(v float32) *tensor.Tensor {
		x := tensor.New(tensor.Float32, 16)
		for i := range x.F {
			x.F[i] = v
		}
		return x
	}
	pin := func(tag string, got *tensor.Tensor, want float32) {
		t.Helper()
		for i, v := range got.F {
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", tag, i, v, math.Float32bits(v), want, math.Float32bits(want))
			}
		}
	}
	for _, v := range []float32{nan, sNaN, negZero, 0, -1, float32(math.Inf(-1))} {
		pin(fmt.Sprint("Relu(", v, ")"), runOp(t, "Relu", nil, 1, repeat(v)), 0)
	}
	// Max and Min return the second operand whenever the compare is
	// false: against a NaN, and between zeros of either sign.
	for _, p := range []struct {
		op   string
		a, b float32
	}{
		{"Max", nan, 1}, {"Max", 1, sNaN}, {"Max", 0, negZero}, {"Max", negZero, 0},
		{"Min", nan, 1}, {"Min", 1, sNaN}, {"Min", 0, negZero}, {"Min", negZero, 0},
	} {
		tag := fmt.Sprintf("%s(%v, %#x)", p.op, p.a, math.Float32bits(p.b))
		pin(tag+" vv", runOp(t, p.op, nil, 1, repeat(p.a), repeat(p.b)), p.b)
		pin(tag+" vs", runOp(t, p.op, nil, 1, repeat(p.a), tensor.Scalar(p.b)), p.b)
		pin(tag+" sv", runOp(t, p.op, nil, 1, tensor.Scalar(p.a), repeat(p.b)), p.b)
	}
}

// BenchmarkElementwise sizes the run bodies on model shapes: a Conv
// activation, a residual Add, a transformer's trailing-bias Add and a
// scale by a scalar. SetBytes counts every byte a call reads and
// writes, so MB/s is the memory traffic the kernel sustains.
func BenchmarkElementwise(b *testing.B) {
	rng := tensor.NewRNG(45)
	for _, bc := range []struct {
		name string
		op   string
		in   []*tensor.Tensor
	}{
		{"Relu", "Relu", []*tensor.Tensor{randTensor(rng, tensor.Float32, []int64{1, 64, 56, 56})}},
		{"AddSameShape", "Add", []*tensor.Tensor{
			randTensor(rng, tensor.Float32, []int64{1, 64, 56, 56}), randTensor(rng, tensor.Float32, []int64{1, 64, 56, 56})}},
		{"AddTrailingBias", "Add", []*tensor.Tensor{
			randTensor(rng, tensor.Float32, []int64{384, 768}), randTensor(rng, tensor.Float32, []int64{768})}},
		{"MulScalar", "Mul", []*tensor.Tensor{randTensor(rng, tensor.Float32, []int64{384, 768}), tensor.Scalar(0.125)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			node := &graph.Node{Name: "b", OpType: bc.op}
			bytes := bc.in[0].Len() // the output
			for _, x := range bc.in {
				bytes += x.Len()
			}
			b.SetBytes(4 * bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(node, bc.in, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
