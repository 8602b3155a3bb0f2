package sod2

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

func TestFacadePipelineOnCodeBERT(t *testing.T) {
	b, err := BuildModel("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph() == nil || c.Analysis() == nil || c.Fusion() == nil || c.Execution() == nil {
		t.Fatal("compiled artifacts missing")
	}
	s := NewSample(b, 64, 0.5, 7)
	out, rep, err := c.Infer(s.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || rep.LatencyMS <= 0 || rep.PeakMemBytes <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestFacadeHandBuiltGraph(t *testing.T) {
	g := NewGraph("mini")
	g.AddInput("x", tensor.Float32, lattice.FromInts(1, 4))
	g.Op("Relu", "r", []string{"x"}, []string{"y"}, nil)
	g.AddOutput("y")
	res, err := Analyze(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fuse(g, res.Infos)
	if fp == nil {
		t.Fatal("no fusion plan")
	}
	if _, err := PlanExecution(g, res.Infos, fp); err != nil {
		t.Fatal(err)
	}
	out, err := RunGraph(g, map[string]*Tensor{
		"x": tensor.FromFloats([]int64{1, 4}, []float32{-1, 0, 1, 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out["y"].F[0] != 0 || out["y"].F[3] != 2 {
		t.Errorf("y = %v", out["y"].F)
	}
}

func TestFacadeModels(t *testing.T) {
	if len(Models()) != 10 {
		t.Errorf("models = %d", len(Models()))
	}
	if _, err := BuildModel("NoSuchModel"); err == nil {
		t.Error("expected error")
	}
}

func TestFacadeDeviceProfiles(t *testing.T) {
	if SD888CPU.GFlops <= SD835CPU.GFlops {
		t.Error("sd888 should outclass sd835")
	}
	if !SD888GPU.IsGPU || SD888CPU.IsGPU {
		t.Error("gpu flags")
	}
}

// Infer serves an in-region request on the planned tier — the region
// proof's layout fitted to the request, whose high water the report
// carries as its peak memory — with the outputs of unplanned execution.
func TestFacadeInferPlannedArena(t *testing.T) {
	b, err := BuildModel("YOLO-V6")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSample(b, 256, 0.5, 61)
	out, rep, err := c.Infer(s.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if worst := c.Verify().Mem.ArenaSize; rep.FallbackTier != TierPlanned || rep.PeakMemBytes <= 0 || rep.PeakMemBytes > worst {
		t.Fatalf("tier %v, peak memory %d: want the planned arena, at most the proven %d bytes",
			rep.FallbackTier, rep.PeakMemBytes, worst)
	}
	heap, err := RunGraph(c.Graph(), s.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, ref := range heap {
		got := out[name]
		if got == nil || !tensor.AllClose(ref, got, 0) {
			t.Fatalf("arena output %s differs", name)
		}
	}
}

// A Conv or pool whose pads, strides or dilations do not fit the input's
// spatial rank fails analysis with a typed error, read from the JSON
// model format as a user's model would be, instead of panicking in the
// transfer function that indexes them.
func TestAnalyzeRejectsConvAttrLengths(t *testing.T) {
	for _, tc := range []struct {
		op    string
		attrs map[string]NodeAttr
		bad   string
	}{
		{"Conv", map[string]NodeAttr{"pads": IntsAttr(1, 1)}, "pads"},
		{"Conv", map[string]NodeAttr{"strides": IntsAttr(1)}, "strides"},
		{"Conv", map[string]NodeAttr{"dilations": IntsAttr(1, 1, 1)}, "dilations"},
		{"MaxPool", map[string]NodeAttr{"kernel_shape": IntsAttr(2, 2), "pads": IntsAttr(0, 0, 0)}, "pads"},
		{"AveragePool", map[string]NodeAttr{"kernel_shape": IntsAttr(2), "strides": IntsAttr(2, 2)}, "kernel_shape"},
	} {
		g := NewGraph("bad-attrs")
		g.AddInput("x", tensor.Float32, lattice.FromInts(1, 3, 8, 8))
		in := []string{"x"}
		if tc.op == "Conv" {
			g.AddInitializer("w", tensor.RandomFloats(tensor.NewRNG(1), 1, 4, 3, 3, 3))
			in = append(in, "w")
		}
		g.Op(tc.op, "op", in, []string{"y"}, tc.attrs)
		g.AddOutput("y")
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadGraphJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Analyze(loaded, nil)
		var lenErr *kernels.AttrLenError
		if !errors.As(err, &lenErr) || lenErr.Attr != tc.bad {
			t.Errorf("%s %v: Analyze error %v, want an AttrLenError on %s", tc.op, tc.attrs, err, tc.bad)
		}
	}
}

// A loaded Transpose whose perm is no permutation of its rank-4 input
// fails analysis with an *AttrError naming the node, never a panic and
// never a shape analyzed from a partial perm.
func TestAnalyzeRejectsTransposePerm(t *testing.T) {
	for _, perm := range [][]int64{{0, 5, 1}, {0, 1}, {0, 0, 1}} {
		g := NewGraph("bad-perm")
		g.AddInput("x", tensor.Float32, lattice.FromInts(1, 4, 6, 6))
		g.Op("Transpose", "t", []string{"x"}, []string{"y"}, map[string]NodeAttr{"perm": IntsAttr(perm...)})
		g.AddOutput("y")
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadGraphJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("perm %v: Analyze panicked: %v", perm, r)
				}
			}()
			_, err = Analyze(loaded, nil)
			var ae *kernels.AttrError
			if !errors.As(err, &ae) || ae.Node != "t" || ae.Attr != "perm" {
				t.Errorf("perm %v: Analyze error %v, want an AttrError on t's perm", perm, err)
			}
		}()
	}
}
