package exec

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// TestOutputsNeverShareCallerStorage: Switch and Combine forward their
// tensors, so y = Combine(Relu(a), b) with (a, b) = Switch(p, v) returns
// v itself when p routes v to b. Whether v is the caller's input or the
// model's weight, the output is a copy: mutating it leaves v, and the
// next run's answer, as they were — with predicated execution and with
// every branch executed, on either path.
func TestOutputsNeverShareCallerStorage(t *testing.T) {
	for _, src := range []string{"x", "w"} {
		g := graph.New("forward")
		g.AddInput("x", tensor.Float32, lattice.FromInts(2, 3))
		g.AddInput("p", tensor.Bool, lattice.FromInts())
		g.AddInitializer("w", tensor.FromFloats([]int64{2, 3}, []float32{-6, 5, -4, 3, -2, 1}))
		g.Op("Switch", "switch", []string{"p", src}, []string{"a", "b"}, nil)
		g.Op("Relu", "relu", []string{"a"}, []string{"r"}, nil)
		g.Op("Combine", "combine", []string{"r", "b"}, []string{"y"}, nil)
		g.AddOutput("y")
		x := tensor.FromFloats([]int64{2, 3}, []float32{1, -2, 3, -4, 5, -6})
		v := map[string]*tensor.Tensor{"x": x, "w": g.Initializers["w"]}[src]
		vWas := slices.Clone(v.F)
		for _, taken := range []bool{true, false} {
			for _, all := range []bool{false, true} {
				in := map[string]*tensor.Tensor{"x": x, "p": tensor.ScalarBool(taken)}
				run := func() *tensor.Tensor {
					res, err := Run(g, in, Options{ExecuteAllBranches: all})
					if err != nil {
						t.Fatal(err)
					}
					return res.Outputs["y"]
				}
				y := run()
				want := slices.Clone(y.F)
				if !taken && !slices.Equal(want, vWas) {
					t.Fatalf("%s, skip path: y = %v, want %s = %v", src, want, src, vWas)
				}
				for i := range y.F {
					y.F[i] = 99
				}
				if !slices.Equal(v.F, vWas) {
					t.Fatalf("%s, taken %v, all %v: mutating the output changed %s to %v", src, taken, all, src, v.F)
				}
				if got := run(); !slices.Equal(got.F, want) {
					t.Fatalf("%s, taken %v, all %v: the next run answered %v, want %v", src, taken, all, got.F, want)
				}
			}
		}
	}
}
