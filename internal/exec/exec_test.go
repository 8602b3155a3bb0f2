package exec

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

func TestRunChain(t *testing.T) {
	g := graph.New("chain")
	g.AddInput("x", tensor.Float32, lattice.FromInts(1, 4))
	g.Op("Relu", "r", []string{"x"}, []string{"y"}, nil)
	g.Op("Sigmoid", "s", []string{"y"}, []string{"z"}, nil)
	g.AddOutput("z")
	res, err := Run(g, map[string]*tensor.Tensor{
		"x": tensor.FromFloats([]int64{1, 4}, []float32{-1, 0, 1, 100}),
	}, Options{Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	z := res.Outputs["z"]
	if z.F[0] != 0.5 || z.F[1] != 0.5 || z.F[3] < 0.99 {
		t.Errorf("z = %v", z.F)
	}
	if len(res.Trace.Events) != 2 {
		t.Errorf("events = %d", len(res.Trace.Events))
	}
	if res.Trace.PeakLiveBytes <= 0 || res.Trace.TotalAllocBytes < res.Trace.PeakLiveBytes {
		t.Errorf("peak=%d total=%d", res.Trace.PeakLiveBytes, res.Trace.TotalAllocBytes)
	}
}

func TestMissingInput(t *testing.T) {
	g := graph.New("m")
	g.AddInput("x", tensor.Float32, lattice.FromInts(1))
	g.Op("Relu", "r", []string{"x"}, []string{"y"}, nil)
	g.AddOutput("y")
	if _, err := Run(g, nil, Options{}); err == nil {
		t.Error("expected missing-input error")
	}
}

func TestFreeAtLastUseReducesPeak(t *testing.T) {
	// Long chain: with freeing, peak is 2 tensors; holding every
	// intermediate to the end would be all 10 (TotalAllocBytes).
	g := graph.New("long")
	g.AddInput("x", tensor.Float32, lattice.FromInts(1024))
	prev := "x"
	for i := 0; i < 10; i++ {
		out := prev + "r"
		g.Op("Relu", out+"n", []string{prev}, []string{out}, nil)
		prev = out
	}
	g.AddOutput(prev)
	in := map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 1024)}
	res, err := Run(g, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.TotalAllocBytes != 10*1024*4 {
		t.Errorf("total alloc = %d", res.Trace.TotalAllocBytes)
	}
	if res.Trace.PeakLiveBytes >= res.Trace.TotalAllocBytes {
		t.Errorf("peak=%d total=%d", res.Trace.PeakLiveBytes, res.Trace.TotalAllocBytes)
	}
	if res.Trace.PeakLiveBytes != 2*1024*4 {
		t.Errorf("peak = %d, want two live tensors", res.Trace.PeakLiveBytes)
	}
}

func gatedGraph() *graph.Graph {
	g := graph.New("gated")
	g.AddInput("x", tensor.Float32, lattice.FromInts(1, 4))
	g.AddInput("gate", tensor.Float32, lattice.FromInts())
	g.Op("Switch", "sw", []string{"gate", "x"}, []string{"a", "b"}, nil)
	g.Op("Relu", "blk", []string{"a"}, []string{"a2"}, nil)
	g.Op("Neg", "skip", []string{"b"}, []string{"b2"}, nil)
	g.Op("Combine", "cb", []string{"a2", "b2"}, []string{"out"}, nil)
	g.AddOutput("out")
	return g
}

func TestSwitchTakesPredicatedPath(t *testing.T) {
	g := gatedGraph()
	x := tensor.FromFloats([]int64{1, 4}, []float32{-1, 2, -3, 4})

	// gate > 0.5: path a (Relu)
	res, err := Run(g, map[string]*tensor.Tensor{"x": x, "gate": tensor.Scalar(1)}, Options{Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs["out"]
	if out.F[0] != 0 || out.F[1] != 2 {
		t.Errorf("relu path = %v", out.F)
	}
	// The untaken Neg must be recorded as skipped.
	var skipped int
	for _, e := range res.Trace.Events {
		if e.Skipped {
			skipped++
		}
	}
	if skipped != 1 {
		t.Errorf("skipped = %d", skipped)
	}

	// gate <= 0.5: path b (Neg)
	res2, err := Run(g, map[string]*tensor.Tensor{"x": x, "gate": tensor.Scalar(0)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outputs["out"].F[0] != 1 {
		t.Errorf("neg path = %v", res2.Outputs["out"].F)
	}
}

func TestExecuteAllBranchesRunsBoth(t *testing.T) {
	g := gatedGraph()
	x := tensor.FromFloats([]int64{1, 4}, []float32{-1, 2, -3, 4})
	res, err := Run(g, map[string]*tensor.Tensor{"x": x, "gate": tensor.Scalar(1)},
		Options{ExecuteAllBranches: true, Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Trace.Events {
		if e.Skipped {
			t.Errorf("execute-all should not skip %s", e.Node.Name)
		}
	}
	// Result must still come from the taken path.
	if res.Outputs["out"].F[1] != 2 {
		t.Errorf("out = %v", res.Outputs["out"].F)
	}
	// Execute-all costs more memory than predicated execution.
	pred, _ := Run(g, map[string]*tensor.Tensor{"x": x, "gate": tensor.Scalar(1)}, Options{})
	if res.Trace.TotalAllocBytes <= pred.Trace.TotalAllocBytes {
		t.Errorf("all=%d pred=%d", res.Trace.TotalAllocBytes, pred.Trace.TotalAllocBytes)
	}
}

func TestIfExecution(t *testing.T) {
	mkBody := func(name, op string) *graph.Graph {
		b := graph.New(name)
		b.AddInput("bx", tensor.Float32, lattice.UndefShape())
		b.Op(op, "bop", []string{"bx"}, []string{"by"}, nil)
		b.AddOutput("by")
		return b
	}
	g := graph.New("ifg")
	g.AddInput("cond", tensor.Bool, lattice.FromInts())
	g.AddInput("x", tensor.Float32, lattice.FromInts(2))
	g.Op("If", "if1", []string{"cond", "x"}, []string{"y"}, map[string]graph.AttrValue{
		"then_branch": graph.GraphAttr(mkBody("then", "Relu")),
		"else_branch": graph.GraphAttr(mkBody("else", "Neg")),
	})
	g.AddOutput("y")
	x := tensor.FromFloats([]int64{2}, []float32{-5, 3})

	rt, err := Run(g, map[string]*tensor.Tensor{"cond": tensor.ScalarBool(true), "x": x}, Options{Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Outputs["y"].F[0] != 0 || rt.Outputs["y"].F[1] != 3 {
		t.Errorf("then = %v", rt.Outputs["y"].F)
	}
	re, err := Run(g, map[string]*tensor.Tensor{"cond": tensor.ScalarBool(false), "x": x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Outputs["y"].F[0] != 5 {
		t.Errorf("else = %v", re.Outputs["y"].F)
	}

	// execute-all runs both branch bodies (2 events) vs 1 predicated.
	all, err := Run(g, map[string]*tensor.Tensor{"cond": tensor.ScalarBool(true), "x": x},
		Options{ExecuteAllBranches: true, Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Trace.Events) <= len(rt.Trace.Events) {
		t.Errorf("all events=%d predicated=%d", len(all.Trace.Events), len(rt.Trace.Events))
	}
}

func TestLoopExecution(t *testing.T) {
	body := graph.New("body")
	body.AddInput("i", tensor.Int64, lattice.FromInts())
	body.AddInput("cond_in", tensor.Bool, lattice.FromInts())
	body.AddInput("acc", tensor.Float32, lattice.FromInts(1))
	body.AddInitializer("one", tensor.FromFloats([]int64{1}, []float32{1}))
	body.Op("Identity", "ci", []string{"cond_in"}, []string{"cond_out"}, nil)
	body.Op("Add", "inc", []string{"acc", "one"}, []string{"acc_out"}, nil)
	body.AddOutput("cond_out")
	body.AddOutput("acc_out")

	g := graph.New("loopg")
	g.AddInitializer("trip", tensor.ScalarInt(5))
	g.AddInitializer("cond", tensor.ScalarBool(true))
	g.AddInput("x", tensor.Float32, lattice.FromInts(1))
	g.Op("Loop", "lp", []string{"trip", "cond", "x"}, []string{"y"}, map[string]graph.AttrValue{
		"body": graph.GraphAttr(body),
	})
	g.AddOutput("y")
	res, err := Run(g, map[string]*tensor.Tensor{"x": tensor.FromFloats([]int64{1}, []float32{0})}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["y"].F[0] != 5 {
		t.Errorf("loop acc = %v", res.Outputs["y"].F)
	}
}

func TestCustomOrderRespected(t *testing.T) {
	g := graph.New("order")
	g.AddInput("x", tensor.Float32, lattice.FromInts(2))
	g.Op("Relu", "a", []string{"x"}, []string{"ya"}, nil)
	g.Op("Neg", "b", []string{"x"}, []string{"yb"}, nil)
	g.Op("Add", "c", []string{"ya", "yb"}, []string{"out"}, nil)
	g.AddOutput("out")
	sorted, _ := g.TopoSort()
	// Swap the two independent ops.
	order := []*graph.Node{sorted[1], sorted[0], sorted[2]}
	res, err := Run(g, map[string]*tensor.Tensor{"x": tensor.FromFloats([]int64{2}, []float32{1, -1})}, Options{Order: order, Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Events[0].Node.Name != order[0].Name {
		t.Errorf("order not respected: %s", res.Trace.Events[0].Node.Name)
	}
	if res.Outputs["out"].F[0] != 0 || res.Outputs["out"].F[1] != 1 {
		t.Errorf("out = %v", res.Outputs["out"].F)
	}
}

func TestShapeDrivenReshapePipeline(t *testing.T) {
	// Dynamic reshape driven by a Shape-computation subgraph executes
	// correctly for two different input lengths without re-building.
	g := graph.New("dynreshape")
	g.AddInput("x", tensor.Float32, lattice.Ranked(lattice.FromInt(1), lattice.FromSym("L"), lattice.FromInt(4)))
	g.AddInitializer("two", tensor.FromInts([]int64{1}, []int64{2}))
	g.AddInitializer("negone", tensor.FromInts([]int64{1}, []int64{-1}))
	g.Op("Shape", "shp", []string{"x"}, []string{"xs"}, nil)
	g.Op("Slice", "sl", []string{"xs", "one0", "two2", "zero0"}, []string{"lslice"}, nil)
	g.AddInitializer("one0", tensor.FromInts([]int64{1}, []int64{1}))
	g.AddInitializer("two2", tensor.FromInts([]int64{1}, []int64{2}))
	g.AddInitializer("zero0", tensor.FromInts([]int64{1}, []int64{0}))
	g.Op("Concat", "cat", []string{"lslice", "negone", "two"}, []string{"target"}, map[string]graph.AttrValue{
		"axis": graph.IntAttr(0)})
	g.Op("Reshape", "rs", []string{"x", "target"}, []string{"y"}, nil)
	g.AddOutput("y")

	for _, L := range []int64{3, 7} {
		x := tensor.New(tensor.Float32, 1, L, 4)
		res, err := Run(g, map[string]*tensor.Tensor{"x": x}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		y := res.Outputs["y"]
		if !tensor.SameShape(y.Shape, []int64{L, 2, 2}) {
			t.Errorf("L=%d: y shape = %v", L, y.Shape)
		}
	}
}
