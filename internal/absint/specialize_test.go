package absint_test

import (
	"math"
	"testing"

	"repro/internal/absint"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/rdp"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

func analyzeG(t *testing.T, g *graph.Graph) map[string]lattice.Info {
	t.Helper()
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Infos
}

// sameOutputs asserts two execution results carry bit-identical outputs.
func sameOutputs(t *testing.T, tag string, got, want map[string]*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: output count %d != %d", tag, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: output %q missing", tag, name)
		}
		if len(g.F) != len(w.F) || len(g.I) != len(w.I) || len(g.B) != len(w.B) {
			t.Fatalf("%s/%s: payload length differs", tag, name)
		}
		for i := range w.F {
			if math.Float32bits(g.F[i]) != math.Float32bits(w.F[i]) {
				t.Fatalf("%s/%s: float %d: %v != %v", tag, name, i, g.F[i], w.F[i])
			}
		}
		for i := range w.I {
			if g.I[i] != w.I[i] {
				t.Fatalf("%s/%s: int %d: %d != %d", tag, name, i, g.I[i], w.I[i])
			}
		}
		for i := range w.B {
			if g.B[i] != w.B[i] {
				t.Fatalf("%s/%s: bool %d: %v != %v", tag, name, i, g.B[i], w.B[i])
			}
		}
	}
}

// ifModel is a graph whose If predicate is a shape comparison that the
// region proves constant: L ∈ [2,16] makes Greater(L, 1) always true.
func ifModel() *graph.Graph {
	mkBody := func(name, op string) *graph.Graph {
		b := graph.New(name)
		b.AddInput(name+".bx", tensor.Float32, lattice.UndefShape())
		b.Op(op, name+".bop", []string{name + ".bx"}, []string{name + ".by"}, nil)
		b.AddOutput(name + ".by")
		return b
	}
	g := graph.New("ifg")
	g.AddInput("x", tensor.Float32, lattice.Ranked(
		lattice.FromInt(1), lattice.FromExpr(symbolic.NewSym("L")), lattice.FromInt(8)))
	g.AddInitializer("idx1", tensor.ScalarInt(1))
	g.AddInitializer("one", tensor.ScalarInt(1))
	g.Op("Shape", "shp", []string{"x"}, []string{"xs"}, nil)
	g.Op("Gather", "gl", []string{"xs", "idx1"}, []string{"lseq"}, nil)
	g.Op("Greater", "gt", []string{"lseq", "one"}, []string{"cond"}, nil)
	g.Op("If", "if1", []string{"cond", "x"}, []string{"y"}, map[string]graph.AttrValue{
		"then_branch": graph.GraphAttr(mkBody("then", "Relu")),
		"else_branch": graph.GraphAttr(mkBody("else", "Neg")),
	})
	g.AddOutput("y")
	return g
}

func ifRegion() map[string]symbolic.Interval {
	return map[string]symbolic.Interval{"L": symbolic.NewInterval(2, 16, 2)}
}

func TestSpecializeInlinesRegionConstantIf(t *testing.T) {
	g := ifModel()
	infos := analyzeG(t, g)
	sg, cert, err := absint.Specialize(g, infos, absint.Options{Region: ifRegion()})
	if err != nil {
		t.Fatal(err)
	}
	if sg == g {
		t.Fatal("If inlining must produce a new graph")
	}
	if len(cert.Branches) != 1 {
		t.Fatalf("branches = %+v", cert.Branches)
	}
	b := cert.Branches[0]
	if b.Node != "if1" || b.Op != "If" || b.Taken != 0 || !b.Applied {
		t.Fatalf("branch decision = %+v, want applied then-arm", b)
	}
	if !b.RegionDep || !cert.RegionDependent() {
		t.Error("the proof leaned on L's region; certificate must be region-dependent")
	}
	for _, n := range sg.Nodes {
		if n.OpType == "If" {
			t.Fatal("specialized graph still contains an If")
		}
	}
	found := false
	for _, r := range cert.Removed {
		if r == "if1" {
			found = true
		}
	}
	if !found {
		t.Errorf("Removed = %v, want if1 listed", cert.Removed)
	}

	// Differential: bit-identical outputs across every in-region shape.
	for L := int64(2); L <= 16; L += 2 {
		x := tensor.RandomFloats(tensor.NewRNG(uint64(L)), 1.0, 1, L, 8)
		in := map[string]*tensor.Tensor{"x": x}
		want, err := exec.Run(g, in, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Run(sg, in, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameOutputs(t, "if-inline", got.Outputs, want.Outputs)
	}
}

// switchModel routes through a <Switch, Combine> pair gated by a
// constant bool initializer — provable without any region facts.
func switchModel() *graph.Graph {
	g := graph.New("swg")
	g.AddInput("x", tensor.Float32, lattice.FromInts(4))
	g.AddInitializer("p", tensor.ScalarBool(true))
	g.Op("Switch", "sw", []string{"p", "x"}, []string{"a", "b"}, nil)
	g.Op("Relu", "blk", []string{"a"}, []string{"a2"}, nil)
	g.Op("Neg", "skip", []string{"b"}, []string{"b2"}, nil)
	g.Op("Combine", "cb", []string{"a2", "b2"}, []string{"out"}, nil)
	g.AddOutput("out")
	return g
}

func TestSpecializePrunesConstantSwitch(t *testing.T) {
	g := switchModel()
	infos := analyzeG(t, g)
	sg, cert, err := absint.Specialize(g, infos, absint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Branches) != 1 || !cert.Branches[0].Applied || cert.Branches[0].Taken != 0 {
		t.Fatalf("branches = %+v", cert.Branches)
	}
	if cert.RegionDependent() {
		t.Error("constant-initializer proof is region-independent")
	}
	for _, n := range sg.Nodes {
		switch n.OpType {
		case "Switch", "Combine", "Neg":
			t.Fatalf("untaken path survived: %s %s", n.OpType, n.Name)
		}
	}
	if len(cert.Removed) == 0 || len(cert.Rewritten) == 0 {
		t.Fatalf("removed=%v rewritten=%v", cert.Removed, cert.Rewritten)
	}

	in := map[string]*tensor.Tensor{
		"x": tensor.FromFloats([]int64{4}, []float32{-1, 2, -3, 4}),
	}
	want, err := exec.Run(g, in, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Run(sg, in, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "switch-prune", got.Outputs, want.Outputs)
}

// TestSpecializeSkipsInfeasiblePrune: when the untaken arm feeds a graph
// output, pruning would orphan it; the decision is recorded Applied=false
// and the graph stays untouched.
func TestSpecializeSkipsInfeasiblePrune(t *testing.T) {
	g := switchModel()
	g.AddOutput("b2") // the untaken arm is observable
	infos := analyzeG(t, g)
	sg, cert, err := absint.Specialize(g, infos, absint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg != g {
		t.Fatal("infeasible prune must leave the graph alone")
	}
	if len(cert.Branches) != 1 || cert.Branches[0].Applied {
		t.Fatalf("branches = %+v, want recorded but unapplied", cert.Branches)
	}
	if cert.TopologyChanged() {
		t.Error("unapplied decision must not mark the topology changed")
	}
}

// constifyModel computes a Reshape target with initializer arithmetic:
// the value is region-constant, so the specializer materializes it.
func constifyModel() *graph.Graph {
	g := graph.New("constg")
	g.AddInput("x", tensor.Float32, lattice.FromInts(2, 8))
	g.AddInitializer("ca", tensor.FromInts([]int64{2}, []int64{2, 2}))
	g.AddInitializer("cb", tensor.FromInts([]int64{2}, []int64{2, 2}))
	g.Op("Add", "mk", []string{"ca", "cb"}, []string{"tgt"}, nil)
	g.Op("Reshape", "rs", []string{"x", "tgt"}, []string{"y"}, nil)
	g.AddOutput("y")
	return g
}

func TestSpecializeConstifiesShapeValue(t *testing.T) {
	g := constifyModel()
	infos := analyzeG(t, g)
	sg, cert, err := absint.Specialize(g, infos, absint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Constified) != 1 {
		t.Fatalf("constified = %+v", cert.Constified)
	}
	cv := cert.Constified[0]
	if cv.Value != "tgt" || cv.RegionDep {
		t.Fatalf("constified = %+v", cv)
	}
	if len(cv.Ints) != 2 || cv.Ints[0] != 4 || cv.Ints[1] != 4 {
		t.Fatalf("constified ints = %v, want [4 4]", cv.Ints)
	}
	if _, ok := sg.Initializers["tgt$c"]; !ok {
		t.Fatal("materialized initializer tgt$c missing")
	}
	// The producing Add is dead once its consumer is rewired.
	for _, n := range sg.Nodes {
		if n.Name == "mk" {
			t.Fatal("dead shape-math producer survived")
		}
	}

	in := map[string]*tensor.Tensor{
		"x": tensor.RandomFloats(tensor.NewRNG(3), 1.0, 2, 8),
	}
	want, _ := exec.Run(g, in, exec.Options{})
	got, err := exec.Run(sg, in, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "constify", got.Outputs, want.Outputs)
}

// loopModel feeds a Loop's max-trip input from a symbolic shape dim, so
// the region bounds the trip count statically.
func loopModel() *graph.Graph {
	body := graph.New("body")
	body.AddInput("body.i", tensor.Int64, lattice.FromInts())
	body.AddInput("body.cond_in", tensor.Bool, lattice.FromInts())
	body.AddInput("body.acc", tensor.Float32, lattice.UndefShape())
	body.AddInitializer("body.one", tensor.FromFloats([]int64{1}, []float32{1}))
	body.Op("Identity", "body.ci", []string{"body.cond_in"}, []string{"body.cond_out"}, nil)
	body.Op("Add", "body.inc", []string{"body.acc", "body.one"}, []string{"body.acc_out"}, nil)
	body.AddOutput("body.cond_out")
	body.AddOutput("body.acc_out")

	g := graph.New("loopg")
	g.AddInput("x", tensor.Float32, lattice.Ranked(lattice.FromExpr(symbolic.NewSym("L"))))
	g.AddInitializer("idx0", tensor.ScalarInt(0))
	g.AddInitializer("cond", tensor.ScalarBool(true))
	g.Op("Shape", "shp", []string{"x"}, []string{"xs"}, nil)
	g.Op("Gather", "gl", []string{"xs", "idx0"}, []string{"trip"}, nil)
	g.Op("Loop", "lp", []string{"trip", "cond", "x"}, []string{"y"}, map[string]graph.AttrValue{
		"body": graph.GraphAttr(body),
	})
	g.AddOutput("y")
	return g
}

func TestSpecializeBoundsLoopTrips(t *testing.T) {
	g := loopModel()
	infos := analyzeG(t, g)
	region := map[string]symbolic.Interval{"L": symbolic.NewInterval(2, 16, 2)}
	sg, cert, err := absint.Specialize(g, infos, absint.Options{Region: region})
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.LoopBounds) != 1 {
		t.Fatalf("loop bounds = %+v", cert.LoopBounds)
	}
	lb := cert.LoopBounds[0]
	if lb.Node != "lp" || lb.MaxTrip != 16 || !lb.RegionDep {
		t.Fatalf("loop bound = %+v, want lp ≤ 16 region-dep", lb)
	}
	if cert.TopologyChanged() {
		t.Error("attribute-only bound must not mark topology changed")
	}
	if !cert.ChangedGraph() {
		t.Error("bound attachment is a graph change")
	}
	var lp *graph.Node
	for _, n := range sg.Nodes {
		if n.Name == "lp" {
			lp = n
		}
	}
	if lp == nil || lp.AttrInt("static_max_trip", 0) != 16 {
		t.Fatalf("static_max_trip not attached: %+v", lp)
	}

	// The bound must never loosen semantics: in-region runs agree.
	for _, L := range []int64{2, 8, 16} {
		in := map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, L)}
		want, err := exec.Run(g, in, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Run(sg, in, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameOutputs(t, "loop-bound", got.Outputs, want.Outputs)
	}
}

// TestCertificateDigestStability: the digest must be stable for equal
// certificates, distinct for different ones, and "none" only when empty.
func TestCertificateDigestStability(t *testing.T) {
	g := ifModel()
	infos := analyzeG(t, g)
	_, cert, err := absint.Specialize(g, infos, absint.Options{Region: ifRegion()})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Empty() || cert.Digest() == "none" {
		t.Fatalf("certificate unexpectedly empty: %s", cert.Summary())
	}
	_, cert2, err := absint.Specialize(g.Clone(), infos, absint.Options{Region: ifRegion()})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Digest() != cert2.Digest() {
		t.Error("identical specializations must digest identically")
	}
	var empty *absint.Certificate
	if !empty.Empty() || empty.Digest() != "none" {
		t.Error("nil certificate must be empty with digest none")
	}
	mutated := *cert
	mutated.Folded++
	if mutated.Digest() == cert.Digest() {
		t.Error("digest must cover every certificate field")
	}
}

// TestSpecializeNoFactsReturnsOriginal: a graph with nothing provable
// passes through untouched with an empty certificate.
func TestSpecializeNoFactsReturnsOriginal(t *testing.T) {
	g := graph.New("plain")
	g.AddInput("x", tensor.Float32, lattice.FromInts(4))
	g.Op("Relu", "r", []string{"x"}, []string{"y"}, nil)
	g.AddOutput("y")
	infos := analyzeG(t, g)
	sg, cert, err := absint.Specialize(g, infos, absint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg != g {
		t.Error("no facts: the original graph must be returned")
	}
	if !cert.Empty() || cert.ChangedGraph() {
		t.Errorf("certificate not empty: %s", cert.Summary())
	}
}
