package sod2

import (
	"testing"

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
