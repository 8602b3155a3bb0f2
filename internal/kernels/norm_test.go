package kernels

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The scalar definitions of LayerNormalization and GroupNormalization,
// written out here one row (one (batch, group) span) at a time, so that
// TestNormMatchesDefinitions judges the kernels' four-row statistics and
// GroupNorm's vector last pass against something other than their own
// code.

// meanVarDef is a row's float64 mean and variance: its values summed in
// ascending order over len(row), then their squared deviations from that
// mean summed in ascending order over len(row).
func meanVarDef(row []float32) (mean, variance float64) {
	for _, v := range row {
		mean += float64(v)
	}
	mean /= float64(len(row))
	for _, v := range row {
		d := float64(v) - mean
		variance += d * d
	}
	return mean, variance / float64(len(row))
}

// layerNormDef normalizes each row of inner values of x over the last
// axis, with scale and bias (nil for none) repeating along the row.
func layerNormDef(x, scale, bias []float32, inner int64, eps float32) []float32 {
	out := make([]float32, len(x))
	for lo := int64(0); lo < int64(len(x)); lo += inner {
		mean, variance := meanVarDef(x[lo : lo+inner])
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		for i := int64(0); i < inner; i++ {
			y := float32((x[lo+i] - float32(mean)) * inv)
			if scale != nil {
				y = float32(y * scale[i%int64(len(scale))])
			}
			if bias != nil {
				y += bias[i%int64(len(bias))]
			}
			out[lo+i] = y
		}
	}
	return out
}

// groupNormDef normalizes x [N, C, plane…] within each of the groups
// channel groups of every batch entry, scale and bias (nil for none)
// per channel.
func groupNormDef(x *tensor.Tensor, scale, bias []float32, groups int64, eps float32) []float32 {
	out := make([]float32, len(x.F))
	c := x.Shape[1]
	plane := tensor.NumElems(x.Shape[2:])
	span := c / groups * plane
	for lo := int64(0); lo < int64(len(x.F)); lo += span {
		mean, variance := meanVarDef(x.F[lo : lo+span])
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		for i := int64(0); i < span; i++ {
			ch := (lo + i) / plane % c
			s, b := float32(1), float32(0)
			if scale != nil {
				s = scale[ch]
			}
			if bias != nil {
				b = bias[ch]
			}
			out[lo+i] = s*(x.F[lo+i]-float32(mean))*inv + b
		}
	}
	return out
}

// TestNormMatchesDefinitions holds LayerNormalization and
// GroupNormalization (and InstanceNormalization, GroupNorm with a group
// per channel) to the definitions above bit for bit, at thread budgets 1
// and 4, into heap and NaN-filled outputs: row and span counts of 1–9,
// 13 and 37, most not a multiple of four, so that the four-row
// statistics and the rows left over after them both run, and stripes
// that end mid group of four (37 rows of 1024 are stripes of 10 at a
// budget of 4; 37 spans of 400, of 19) do too; row lengths and planes
// on both sides of the vector loop's eight; with and without scale and
// bias (LayerNorm's each absent, as long as the row, or shorter than it
// and repeating); inputs salted with large values, and a NaN in some
// rows.
func TestNormMatchesDefinitions(t *testing.T) {
	rng := tensor.NewRNG(58)
	salt := func(x *tensor.Tensor, nan bool) {
		for i := range x.F {
			switch rng.Intn(40) {
			case 0:
				x.F[i] = rng.NormFloat32() * 1e4
			case 1:
				if nan {
					x.F[i] = float32(math.NaN())
				}
			}
		}
	}
	check := func(name string, got *tensor.Tensor, want []float32) {
		t.Helper()
		if i, ok := sameF32(got.F, want); !ok {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, i, got.F[i], math.Float32bits(got.F[i]), want[i], math.Float32bits(want[i]))
		}
	}
	const eps = 1e-5
	attrs := map[string]graph.AttrValue{"epsilon": graph.FloatAttr(eps)}
	for _, rows := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 37} {
		for _, inner := range []int64{1, 3, 8, 17, 64, 1024} {
			x := tensor.RandomFloats(rng, 3, rows, inner)
			salt(x, rows%3 == 0)
			// Scale and bias lengths: none, the row's, its largest
			// proper divisor and, when that is another length, half the
			// row, which repeats a partial time.
			lens := []int64{0, inner}
			for p := int64(2); p <= inner; p++ {
				if inner%p == 0 {
					lens = append(lens, inner/p)
					break
				}
			}
			if h := max(1, inner/2); inner%h != 0 {
				lens = append(lens, h)
			}
			for _, sl := range lens {
				for _, bl := range lens {
					in, scale, bias := []*tensor.Tensor{x}, []float32(nil), []float32(nil)
					if sl > 0 || bl > 0 {
						in = append(in, nil, nil)
					}
					if sl > 0 {
						in[1] = tensor.RandomFloats(rng, 2, sl)
						scale = in[1].F
					}
					if bl > 0 {
						in[2] = tensor.RandomFloats(rng, 2, bl)
						bias = in[2].F
					}
					want := layerNormDef(x.F, scale, bias, inner, eps)
					for _, threads := range []int{1, 4} {
						got := runOp(t, "LayerNormalization", attrs, threads, in...)
						check(fmt.Sprintf("LayerNormalization [%d,%d] scale %d bias %d threads %d", rows, inner, sl, bl, threads), got, want)
					}
				}
			}
		}
	}
	for _, tc := range []struct{ n, c, groups int64 }{
		{1, 3, 3}, {1, 6, 2}, {1, 10, 5}, {2, 4, 2}, {3, 6, 3}, {1, 8, 4}, {2, 12, 6}, {1, 26, 13}, {1, 37, 37},
	} {
		for _, hw := range []int64{1, 3, 5, 12, 20} {
			x := tensor.RandomFloats(rng, 3, tc.n, tc.c, hw, hw)
			salt(x, tc.c%3 == 0)
			for _, affine := range []bool{false, true} {
				in, scale, bias := []*tensor.Tensor{x}, []float32(nil), []float32(nil)
				if affine {
					st, bt := tensor.RandomFloats(rng, 2, tc.c), tensor.RandomFloats(rng, 2, tc.c)
					in, scale, bias = append(in, st, bt), st.F, bt.F
				}
				want := groupNormDef(x, scale, bias, tc.groups, eps)
				ga := map[string]graph.AttrValue{"epsilon": graph.FloatAttr(eps), "num_groups": graph.IntAttr(tc.groups)}
				for _, threads := range []int{1, 4} {
					got := runOp(t, "GroupNormalization", ga, threads, in...)
					check(fmt.Sprintf("GroupNormalization [%d,%d,%d,%d]/%d affine %v threads %d", tc.n, tc.c, hw, hw, tc.groups, affine, threads), got, want)
					if !affine && tc.groups == tc.c {
						got := runOp(t, "InstanceNormalization", attrs, threads, x)
						check(fmt.Sprintf("InstanceNormalization [%d,%d,%d,%d] threads %d", tc.n, tc.c, hw, hw, threads), got, want)
					}
				}
			}
		}
	}
}

// A LayerNorm scale or bias with no float32 values (here int64) is an
// error, not an index panic in the output pass.
func TestLayerNormRejectsNonFloatAffine(t *testing.T) {
	x := tensor.RandomFloats(tensor.NewRNG(59), 1, 2, 4)
	ints := tensor.FromInts([]int64{4}, []int64{1, 2, 3, 4})
	n := &graph.Node{Name: "ln", OpType: "LayerNormalization"}
	for _, in := range [][]*tensor.Tensor{{x, ints}, {x, nil, ints}} {
		if _, err := Run(n, in, nil); err == nil {
			t.Errorf("LayerNormalization with an int64 input %d: no error", len(in)-1)
		}
	}
}

// A GroupNorm scale or bias with fewer than C float32 values, and a
// num_groups below 1, are errors, not index or divide-by-zero panics.
func TestGroupNormRejectsBadAffine(t *testing.T) {
	x := tensor.RandomFloats(tensor.NewRNG(61), 1, 1, 4, 2, 2)
	short := tensor.RandomFloats(tensor.NewRNG(62), 1, 3)
	full := tensor.RandomFloats(tensor.NewRNG(63), 1, 4)
	ints := tensor.FromInts([]int64{4}, []int64{1, 2, 3, 4})
	node := func(groups int64) *graph.Node {
		return &graph.Node{Name: "gn", OpType: "GroupNormalization",
			Attrs: map[string]graph.AttrValue{"num_groups": graph.IntAttr(groups)}}
	}
	for _, tc := range []struct {
		name   string
		groups int64
		in     []*tensor.Tensor
	}{
		{"short scale", 2, []*tensor.Tensor{x, short, full}},
		{"short bias", 2, []*tensor.Tensor{x, full, short}},
		{"int64 scale", 2, []*tensor.Tensor{x, ints, full}},
		{"int64 bias", 2, []*tensor.Tensor{x, nil, ints}},
		{"zero groups", 0, []*tensor.Tensor{x, full, full}},
		{"negative groups", -2, []*tensor.Tensor{x}},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic %v, want an error", tc.name, r)
				}
			}()
			if _, err := Run(node(tc.groups), tc.in, nil); err == nil {
				t.Errorf("%s: no error", tc.name)
			}
		}()
	}
}

// InstanceNormalization of an input below rank 2 is a rank error, not an
// index panic on its missing channel dimension.
func TestInstanceNormRejectsLowRank(t *testing.T) {
	n := &graph.Node{Name: "in", OpType: "InstanceNormalization"}
	for _, x := range []*tensor.Tensor{tensor.RandomFloats(tensor.NewRNG(64), 1, 4), tensor.Scalar(1)} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("rank %d: panic %v, want an error", x.Rank(), r)
				}
			}()
			if _, err := Run(n, []*tensor.Tensor{x}, nil); err == nil || !strings.Contains(err.Error(), "rank") {
				t.Errorf("rank %d: error %v, want a rank error", x.Rank(), err)
			}
		}()
	}
}
