package staticverify

import (
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/memplan"
	"repro/internal/rdp"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// gatedBlock builds x → Relu → d, Switch(p, d) → (taken, skipped),
// taken → Conv → Conv → Add(·, taken) → Combine(·, skipped) → y → Relu
// → out over x [1, 4, H, H]: the shape of SkipNet's, ConvNet-AIG's and
// BlockDrop's gated residual blocks, whose Switch hands d on to both the
// Add and the Combine without a copy.
func gatedBlock(t *testing.T) (*graph.Graph, map[string]lattice.Info, []*graph.Node, Region) {
	t.Helper()
	g := graph.New("gated")
	H := lattice.FromExpr(symbolic.NewSym("H"))
	g.AddInput("x", tensor.Float32, lattice.Ranked(lattice.FromInt(1), lattice.FromInt(4), H, H))
	g.AddInput("p", tensor.Bool, lattice.FromInts())
	rng := tensor.NewRNG(71)
	conv := map[string]graph.AttrValue{"strides": graph.IntsAttr(1, 1), "pads": graph.IntsAttr(1, 1, 1, 1)}
	g.AddInitializer("w1", tensor.RandomFloats(rng, 0.3, 4, 4, 3, 3))
	g.AddInitializer("w2", tensor.RandomFloats(rng, 0.3, 4, 4, 3, 3))
	g.Op("Relu", "stem", []string{"x"}, []string{"d"}, nil)
	g.Op("Switch", "switch", []string{"p", "d"}, []string{"taken", "skipped"}, nil)
	g.Op("Conv", "conv1", []string{"taken", "w1"}, []string{"c1"}, conv)
	g.Op("Conv", "conv2", []string{"c1", "w2"}, []string{"c2"}, conv)
	g.Op("Add", "add", []string{"c2", "taken"}, []string{"s"}, nil)
	g.Op("Combine", "combine", []string{"s", "skipped"}, []string{"y"}, nil)
	g.Op("Relu", "head", []string{"y"}, []string{"out"}, nil)
	g.AddOutput("out")
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Infos, g.Nodes, Region{"H": symbolic.NewInterval(4, 8, 2)}
}

// TestForwardedDataOutlivesItsAliases: Switch forwards d to its arms and
// Combine forwards s or an arm, so d's buffer must stay live through y's
// last use (the head Relu), not die at the Switch that consumes it under
// its own name — otherwise it is free for a Conv output while the Add
// and the Combine still read it. The proven layout keeps it live, and a
// program built without the may-alias roots is refused by the proof
// rather than passed; served with that program's plan, the block's
// output changes.
func TestForwardedDataOutlivesItsAliases(t *testing.T) {
	g, infos, order, region := gatedBlock(t)
	step := func(name string) int {
		return slices.IndexFunc(order, func(n *graph.Node) bool { return n.Name == name })
	}
	live, diags := Liveness(g, order)
	if len(diags) != 0 {
		t.Fatalf("liveness diagnostics: %v", diags)
	}
	if iv := live["d"]; iv.Death != step("head") {
		t.Fatalf("d live %+v, want through the head Relu at step %d", iv, step("head"))
	}
	v, diags := ProveMemory(g, infos, order, region, live)
	if !v.Proven {
		t.Fatalf("memory plan not proven: %s (%v)", v.Reason, diags)
	}
	buf := func(p *memplan.Program, name string) memplan.Buf {
		i := slices.IndexFunc(p.Bufs, func(b memplan.Buf) bool { return b.Name == name })
		if i < 0 {
			t.Fatalf("no buffer %q placed", name)
		}
		return p.Bufs[i]
	}
	if b := buf(v.Program, "d"); b.Death != step("head") {
		t.Errorf("proven program keeps d live [%d,%d], want through step %d", b.Birth, b.Death, step("head"))
	}
	if b := buf(v.Program, "s"); b.Death != step("head") {
		t.Errorf("proven program keeps s live [%d,%d], want through step %d", b.Birth, b.Death, step("head"))
	}

	// The same placement without the roots: d dies at the Switch.
	bare, reasons := placementProgram(g, infos, order, inputSymbols(g, infos), region, nil)
	if len(reasons) != 0 {
		t.Fatal(reasons)
	}
	if b := buf(bare, "d"); b.Death != step("switch") {
		t.Fatalf("without roots d lives [%d,%d], want it to die at the Switch (step %d)", b.Birth, b.Death, step("switch"))
	}
	plan := memplan.PeakFirst(bare)
	diags, reasons = checkPlan(bare, plan, live)
	refused := false
	for _, d := range diags {
		refused = refused || (d.Severity == Error && (d.Code == "lifetime" || d.Code == "overlap"))
	}
	if !refused || len(reasons) == 0 {
		t.Fatalf("a program without the alias roots passed the proof: diagnostics %v", diags)
	}

	// What the refusal prevents: the bare plan gives a Conv output d's
	// bytes, and an arena laid out by it changes the taken path's answer.
	overlaps := func(a, b memplan.Buf) bool {
		oa, ob := plan.Offsets[a.Name], plan.Offsets[b.Name]
		return oa < ob+b.Size && ob < oa+a.Size
	}
	if !overlaps(buf(bare, "d"), buf(bare, "c1")) && !overlaps(buf(bare, "d"), buf(bare, "c2")) {
		t.Fatalf("bare plan %v keeps d apart from both Conv outputs: the block exercises nothing", plan.Offsets)
	}
	inputs := map[string]*tensor.Tensor{
		"x": tensor.RandomFloats(tensor.NewRNG(72), 1, 1, 4, 8, 8),
		"p": tensor.ScalarBool(true),
	}
	run := func(p *memplan.Plan, prog *memplan.Program) *tensor.Tensor {
		t.Helper()
		opts := exec.Options{Order: order}
		if p != nil {
			l := memplan.NewLayout(p, prog)
			opts.Arena = exec.NewArena(l.Index, l.Offsets, l.Sizes, make([]float32, (l.ArenaSize+3)/4))
		}
		res, err := exec.Run(g, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs["out"]
	}
	same := func(a, b *tensor.Tensor) bool {
		return slices.Equal(a.Shape, b.Shape) && slices.Equal(a.F, b.F)
	}
	ref := run(nil, nil)
	if got := run(v.Plan, v.Program); !same(got, ref) {
		t.Error("the proven layout changed the output")
	}
	if got := run(plan, bare); same(got, ref) {
		t.Error("the plan without the alias roots left the output intact: the negative control has no teeth")
	}
}
