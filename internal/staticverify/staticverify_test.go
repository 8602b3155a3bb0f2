package staticverify

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/rdp"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// seqModel builds a tiny [1, L, 8] MatMul→Relu chain with symbolic L.
func seqModel(t *testing.T) (*graph.Graph, map[string]lattice.Info) {
	t.Helper()
	g := graph.New("m")
	g.AddInput("x", tensor.Float32, lattice.Ranked(
		lattice.FromInt(1), lattice.FromExpr(symbolic.NewSym("L")), lattice.FromInt(8)))
	g.AddInitializer("w", tensor.RandomFloats(tensor.NewRNG(1), 0.1, 8, 8))
	g.Op("MatMul", "mm", []string{"x", "w"}, []string{"h"}, nil)
	g.Op("Relu", "act", []string{"h"}, []string{"y"}, nil)
	g.AddOutput("y")
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Infos
}

func TestLivenessChain(t *testing.T) {
	g, _ := seqModel(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	live, diags := Liveness(g, order)
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if iv := live["h"]; iv.Birth != 0 || iv.Death != 1 {
		t.Errorf("h interval = %+v, want [0,1]", iv)
	}
	// Graph output stays live through the final step.
	if iv := live["y"]; iv.Birth != 1 || iv.Death != len(order)-1 {
		t.Errorf("y interval = %+v, want [1,%d]", iv, len(order)-1)
	}
}

func TestLivenessScheduleViolation(t *testing.T) {
	g, _ := seqModel(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the order: Relu consumes h before MatMul produces it.
	rev := []*graph.Node{order[1], order[0]}
	_, diags := Liveness(g, rev)
	if len(diags) == 0 || diags[0].Code != "schedule" {
		t.Fatalf("reversed order should raise a schedule diagnostic, got %v", diags)
	}
}

func TestProveMemoryProven(t *testing.T) {
	g, infos := seqModel(t)
	order, _ := g.TopoSort()
	region := Region{"L": symbolic.NewInterval(2, 16, 2)}
	live, _ := Liveness(g, order)
	v, diags := ProveMemory(g, infos, order, region, live)
	if !v.Proven {
		t.Fatalf("expected proven, got reason %q (diags %v)", v.Reason, diags)
	}
	if v.Plan == nil || v.Program == nil {
		t.Fatal("proven verdict must carry the region plan")
	}
	// Worst-case sizing: both buffers are [1, L, 8] f32 at L=16.
	for _, b := range v.Program.Bufs {
		if b.Size != 1*16*8*4 {
			t.Errorf("buffer %s sized %d, want %d", b.Name, b.Size, 1*16*8*4)
		}
	}
	if err := v.Plan.Validate(v.Program); err != nil {
		t.Errorf("region plan invalid: %v", err)
	}
}

func TestProveMemoryUnprovable(t *testing.T) {
	g, infos := seqModel(t)
	order, _ := g.TopoSort()
	live, _ := Liveness(g, order)

	// Empty region: placed buffer sizes depend on L, which is unbounded.
	v, diags := ProveMemory(g, infos, order, Region{}, live)
	if v.Proven {
		t.Fatal("empty region must be unprovable")
	}
	if v.Reason == "" {
		t.Fatal("unprovable verdict must record a reason")
	}
	found := false
	for _, d := range diags {
		if d.Code == "unprovable" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unprovable verdict must emit an unprovable diagnostic, got %v", diags)
	}
}

func TestProveMemoryNegativeDim(t *testing.T) {
	// y = [1, L-8, 4]: negative for part of the region [2,16].
	g := graph.New("neg")
	L := symbolic.NewSym("L")
	g.AddInput("x", tensor.Float32, lattice.Ranked(
		lattice.FromInt(1), lattice.FromExpr(L), lattice.FromInt(4)))
	g.Op("Slice", "sl", []string{"x"}, []string{"y"}, nil)
	g.AddOutput("y")
	infos := map[string]lattice.Info{
		"x": {Shape: lattice.Ranked(lattice.FromInt(1), lattice.FromExpr(L), lattice.FromInt(4))},
		"y": {Shape: lattice.Ranked(lattice.FromInt(1),
			lattice.FromExpr(symbolic.Sub(L, symbolic.NewConst(8))), lattice.FromInt(4))},
	}
	order := g.Nodes
	live, _ := Liveness(g, order)
	v, diags := ProveMemory(g, infos, order, Region{"L": symbolic.NewInterval(2, 16, 2)}, live)
	if v.Proven {
		t.Fatal("possibly-negative dim must be unprovable")
	}
	hasNeg := false
	for _, d := range diags {
		if d.Code == "negative-dim" && d.Severity == Error {
			hasNeg = true
		}
	}
	if !hasNeg {
		t.Fatalf("want negative-dim diagnostic, got %v", diags)
	}
}

func TestRegionCheck(t *testing.T) {
	r := Region{
		"H": symbolic.NewInterval(224, 640, 32),
		"L": symbolic.NewInterval(32, 384, 1),
		"P": symbolic.Point(16),
	}
	in := func(h int64) symbolic.Env { return symbolic.Env{"H": h, "L": 100, "P": 16} }
	cases := []struct {
		name    string
		region  Region
		env     symbolic.Env
		wantSym string // "" = admitted
		wantVal int64
	}{
		{"Lo", r, in(224), "", 0},
		{"Hi", r, in(640), "", 0},
		{"Hi+Stride", r, in(672), "H", 672},
		{"Lo+1 off the stride", r, in(225), "H", 225},
		{"below Lo", r, in(192), "H", 192},
		{"point member", r, symbolic.Env{"H": 256, "L": 32, "P": 16}, "", 0},
		{"point non-member", r, symbolic.Env{"H": 256, "L": 32, "P": 12}, "P", 12},
		{"unbound symbol", r, symbolic.Env{"H": 256, "P": 16}, "L", 0},
		{"first violation in sorted order", r, symbolic.Env{"H": 250, "L": 999, "P": 1}, "H", 250},
		// An empty region assumed nothing: its proofs hold for any binding.
		{"empty region, empty env", Region{}, symbolic.Env{}, "", 0},
		{"empty region, any env", Region{}, symbolic.Env{"L": 1}, "", 0},
		{"nil region", nil, symbolic.Env{"L": 1}, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.region.Check(tc.env)
			if tc.wantSym == "" {
				if err != nil {
					t.Fatalf("binding %v refused: %v", tc.env, err)
				}
				return
			}
			var ce *guard.ContractError
			if !errors.As(err, &ce) || ce.Kind != guard.KindFact {
				t.Fatalf("binding %v: want a KindFact ContractError, got %v", tc.env, err)
			}
			if ce.Symbol != tc.wantSym || ce.Value != tc.wantVal {
				t.Errorf("violation names %s = %d, want %s = %d", ce.Symbol, ce.Value, tc.wantSym, tc.wantVal)
			}
			if want := tc.wantSym + "∈" + tc.region[tc.wantSym].String(); ce.Fact != want {
				t.Errorf("violation quotes %q, want %q", ce.Fact, want)
			}
			if _, bound := tc.env[tc.wantSym]; bound == (ce.Detail == "unbound") {
				t.Errorf("Detail %q for a symbol bound=%v", ce.Detail, bound)
			}
		})
	}
}

// A violation quotes the symbol's interval exactly as `sod2 lint`
// prints the region, so a refused request names the region the lint
// report proves over.
func TestRegionCheckQuotesLintInterval(t *testing.T) {
	r := Region{"H": symbolic.NewInterval(224, 640, 32), "L": symbolic.NewInterval(32, 384, 1)}
	text := (&Report{Model: "m", Region: r}).Format()
	for sym, v := range map[string]int64{"H": 225, "L": 999} {
		env := symbolic.Env{"H": 224, "L": 32}
		env[sym] = v
		var ce *guard.ContractError
		if err := r.Check(env); !errors.As(err, &ce) {
			t.Fatalf("%s = %d admitted", sym, v)
		}
		if !strings.Contains(text, "region: H∈[224,640]/32 L∈[32,384]\n") || !strings.Contains(text, ce.Fact) {
			t.Errorf("violation quotes %q; lint prints %q", ce.Fact, text)
		}
	}
}

func TestLintFindings(t *testing.T) {
	g := graph.New("lint")
	L := symbolic.NewSym("L")
	g.AddInput("x", tensor.Float32, lattice.Ranked(
		lattice.FromInt(1), lattice.FromExpr(L), lattice.FromInt(4)))
	g.AddInitializer("c1", tensor.FromInts([]int64{1}, []int64{3}))
	g.AddInitializer("c2", tensor.FromInts([]int64{1}, []int64{4}))
	// Dead node: output never used.
	g.Op("Relu", "deadRelu", []string{"x"}, []string{"unused"}, nil)
	// Const-foldable: both inputs are initializers.
	g.Op("Add", "foldme", []string{"c1", "c2"}, []string{"folded"}, nil)
	g.Op("Relu", "keep", []string{"x"}, []string{"y"}, nil)
	g.Op("Reshape", "rs", []string{"y", "folded"}, []string{"z"}, nil)
	g.AddOutput("z")
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diags := Lint(g, res.Infos, Region{"L": symbolic.NewInterval(2, 16, 1)})
	want := map[string]bool{"dead-node": false, "const-foldable": false}
	for _, d := range diags {
		if _, tracked := want[d.Code]; tracked {
			want[d.Code] = true
		}
	}
	for code, got := range want {
		if !got {
			t.Errorf("missing %s diagnostic in %v", code, diags)
		}
	}
}

func TestAnalyzeFormatStable(t *testing.T) {
	g, infos := seqModel(t)
	rep := Analyze(Input{Model: "m", Graph: g, Infos: infos,
		Region: Region{"L": symbolic.NewInterval(2, 16, 2)}})
	a, b := rep.Format(), rep.Format()
	if a != b {
		t.Fatal("Format is not deterministic")
	}
	if !strings.Contains(a, "memory plan: proven") {
		t.Errorf("report should prove the chain model:\n%s", a)
	}
	if !strings.Contains(a, "exec plan: proven") {
		t.Errorf("exec plan should be proven:\n%s", a)
	}
}
