package kernels

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// epCase is one fused epilogue a test runs: which of the scale, the
// bias and the activation it carries.
type epCase struct {
	scaled, biased bool
	act            string // "", "Relu" or "Gelu"
}

func (c epCase) String() string {
	return fmt.Sprintf("scale %v bias %v act %q", c.scaled, c.biased, c.act)
}

// epCases cover each step alone and in the combinations the serving
// rewrite produces.
var epCases = []epCase{
	{scaled: true}, {biased: true}, {act: "Relu"}, {act: "Gelu"},
	{biased: true, act: "Gelu"}, {biased: true, act: "Relu"}, {scaled: true, biased: true},
	{scaled: true, biased: true, act: "Relu"}, {scaled: true, act: "Gelu"},
}

// epOperands draws the case's scale and its bias over n columns (nil
// when it has none) and returns them with the kernel's epilogue.
func (c epCase) epOperands(rng *tensor.RNG, n int64) (epilogue, float32, []float32) {
	var e epilogue
	s := rng.NormFloat32()
	var bias []float32
	if c.scaled {
		e.scale, e.scaled = s, true
	}
	if c.biased {
		bias = randTensor(rng, tensor.Float32, []int64{n}).F
		e.bias = bias
	}
	e.act = map[string]func(o, x []float32){"Relu": relu, "Gelu": geluRow}[c.act]
	return e, s, bias
}

// refFinish is the unfused chain on m rows of w columns, ldc apart, one
// element at a time through the scalar definitions: c·s rounded, then
// + bias[j] rounded (the conversions forbid a fused multiply-add), then
// the activation.
func (c epCase) refFinish(out []float32, m, w, ldc int64, s float32, bias []float32) {
	act := map[string]func(float32) float32{"Relu": reluDef, "Gelu": geluDef}[c.act]
	for i := int64(0); i < m; i++ {
		for j := int64(0); j < w; j++ {
			v := out[i*ldc+j]
			if c.scaled {
				v = float32(v * s)
			}
			if c.biased {
				v = float32(v + bias[j])
			}
			if act != nil {
				v = act(v)
			}
			out[i*ldc+j] = v
		}
	}
}

// diffMatMulEpilogue holds a fused MatMul(a, b[, bias][, scale]) with an
// activation to the unfused MatMul followed by refFinish, at thread
// budgets 1 and 4, with the AVX-512 strip walk on and off. b may be
// packed: the unfused product is then the packed MatMul's, which
// TestMatMulKernelQuantized holds to its float twin.
func diffMatMulEpilogue(t *testing.T, rng *tensor.RNG, c epCase, a, b *tensor.Tensor) {
	t.Helper()
	m, n := a.Shape[a.Rank()-2], b.Shape[b.Rank()-1]
	_, s, bias := c.epOperands(rng, n)
	want := runOp(t, "MatMul", nil, 1, a, b)
	c.refFinish(want.F, want.Len()/max(n, 1), n, n, s, bias)
	in := []*tensor.Tensor{a, b, nil, nil}
	if c.biased {
		in[2] = tensor.FromFloats([]int64{n}, bias)
	}
	if c.scaled {
		in[3] = tensor.Scalar(s)
	}
	attrs := map[string]graph.AttrValue{}
	if c.act != "" {
		attrs["activation"] = graph.StringAttr(c.act)
	}
	forTile512Modes(func(wide bool) {
		for _, threads := range []int{1, 4} {
			sameBits(t, fmt.Sprint("MatMul ", a.Shape, b.Shape, b.DType, " m ", m, " ", c, " threads ", threads, " tile512 ", wide),
				runOp(t, "MatMul", attrs, threads, in...), want)
		}
	})
}

// An activation's row body run in place, as the epilogue runs it,
// matches the same body run out of place, at every length up to three
// eight-lane groups past a tail and every vector width init allows.
func TestActivationRowsInPlace(t *testing.T) {
	rng := tensor.NewRNG(61)
	for _, w := range ExpWidths() {
		func() {
			defer w.Set()()
			for _, body := range []struct {
				name string
				fn   func(o, x []float32)
			}{{"relu", relu}, {"geluRow", geluRow}} {
				for n := int64(0); n <= 35; n++ {
					x := randTensor(rng, tensor.Float32, []int64{n}).F
					x = append(x, float32(math.NaN()), float32(math.Inf(-1)), float32(math.Copysign(0, -1)))
					want := make([]float32, len(x))
					body.fn(want, x)
					body.fn(x, x)
					if i, ok := sameF32(x, want); !ok {
						t.Fatalf("%s %s n %d: in place [%d] = %v, out of place %v", body.name, w.Name, n, i, x[i], want[i])
					}
				}
			}
		}()
	}
}

// A MatMul's epilogue inputs and activation that its kernel cannot take
// are typed errors naming the node and the input or attribute.
func TestMatMulEpilogueRejectsBadInputs(t *testing.T) {
	a, b := tensor.New(tensor.Float32, 2, 3), tensor.New(tensor.Float32, 3, 4)
	for _, tc := range []struct {
		name        string
		bias, scale *tensor.Tensor
		act         string
		wantInput   string // the InputError's input, or "" for an AttrError on activation
	}{
		{"bias of the wrong length", tensor.New(tensor.Float32, 3), nil, "", "bias"},
		{"bias of rank 2", tensor.New(tensor.Float32, 1, 4), nil, "", "bias"},
		{"int64 bias", tensor.New(tensor.Int64, 4), nil, "", "bias"},
		{"scale of two values", nil, tensor.New(tensor.Float32, 2), "", "scale"},
		{"int64 scale", nil, tensor.ScalarInt(2), "", "scale"},
		{"unknown activation", nil, nil, "Tanh", ""},
	} {
		n := &graph.Node{Name: "mm", OpType: "MatMul", Attrs: map[string]graph.AttrValue{}}
		if tc.act != "" {
			n.Attrs["activation"] = graph.StringAttr(tc.act)
		}
		_, err := Run(n, []*tensor.Tensor{a, b, tc.bias, tc.scale}, nil)
		if tc.wantInput == "" {
			var ae *AttrError
			if !errors.As(err, &ae) || ae.Node != "mm" || ae.Attr != "activation" {
				t.Errorf("%s: %v, want an AttrError on mm's activation", tc.name, err)
			}
			continue
		}
		var ie *InputError
		if !errors.As(err, &ie) || ie.Node != "mm" || ie.Input != tc.wantInput {
			t.Errorf("%s: %v, want an InputError on mm's %s", tc.name, err, tc.wantInput)
		}
	}
}
