package guard

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// A region violation (staticverify.Region.Check) renders the symbol,
// the value and the quoted interval, and matches ErrContract.
func TestFactViolationQuotesInterval(t *testing.T) {
	var err error = &ContractError{Kind: KindFact, Symbol: "H", Fact: "H∈[224,640]/32", Value: 225}
	var ce *ContractError
	if !errors.As(err, &ce) || ce.Kind != KindFact || ce.Symbol != "H" || ce.Value != 225 {
		t.Fatalf("want a fact violation for 225, got %v", err)
	}
	if want := `symbol H = 225 violates "H∈[224,640]/32"`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q should quote the interval: %s", err, want)
	}
	if !errors.Is(err, ErrContract) {
		t.Error("fact violation should match ErrContract")
	}
}

func TestOpErrorWrapping(t *testing.T) {
	cause := fmt.Errorf("%w: index out of range", ErrPanic)
	var err error = &OpError{Node: "mm1", Op: "MatMul", InputShapes: [][]int64{{2, 3}, {4, 5}}, Cause: cause}
	if !errors.Is(err, ErrPanic) {
		t.Error("OpError should unwrap to ErrPanic")
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Op != "MatMul" {
		t.Fatalf("errors.As failed: %v", err)
	}
	for _, want := range []string{"MatMul", "mm1", "[2 3]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("message %q missing %q", err.Error(), want)
		}
	}
}

func inputGraph() *graph.Graph {
	g := graph.New("g")
	g.AddInput("x", tensor.Float32, lattice.Ranked(
		lattice.FromInt(1), lattice.FromSym("H"), lattice.FromSym("W")))
	g.Op("Relu", "r", []string{"x"}, []string{"y"}, nil)
	g.AddOutput("y")
	return g
}

// The contract binds symbols and nothing more: a value off the model's
// input region (an H of 65 on a stride of 32) binds cleanly, and only
// the region refuses it (staticverify's TestRegionCheck).
func TestContractBind(t *testing.T) {
	g := inputGraph()
	ct := NewContract(g, nil)

	env, err := ct.BindInputs(map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 1, 64, 7)})
	if err != nil {
		t.Fatalf("64 aligned: %v", err)
	}
	if env["H"] != 64 || env["W"] != 7 {
		t.Errorf("env = %v", env)
	}

	env, err = ct.BindInputs(map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 1, 65, 7)})
	if err != nil || env["H"] != 65 {
		t.Fatalf("65 binds: env %v, %v", env, err)
	}
	var ce *ContractError

	// Rank mismatch is a bind violation.
	_, err = ct.BindInputs(map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 64, 7)})
	if !errors.As(err, &ce) || ce.Kind != KindBind {
		t.Fatalf("want bind violation, got %v", err)
	}

	// Wrong dtype and missing inputs are input violations.
	_, err = ct.BindInputs(map[string]*tensor.Tensor{"x": tensor.New(tensor.Int64, 1, 64, 7)})
	if !errors.As(err, &ce) || ce.Kind != KindInput {
		t.Fatalf("want dtype violation, got %v", err)
	}
	_, err = ct.BindInputs(nil)
	if !errors.As(err, &ce) || ce.Kind != KindInput {
		t.Fatalf("want missing-input violation, got %v", err)
	}
}

func TestContractCheckShapesRejectsNegativeExtent(t *testing.T) {
	g := inputGraph()
	infos := map[string]lattice.Info{
		"x": {Shape: lattice.Ranked(lattice.FromInt(1), lattice.FromSym("H"), lattice.FromSym("W"))},
		// y = H - 10: negative for small H (a Conv shrinking past zero).
		"y": {Shape: lattice.Ranked(lattice.FromExpr(
			symbolic.Sub(symbolic.NewSym("H"), symbolic.NewConst(10))))},
	}
	ct := NewContract(g, infos)
	env, err := ct.BindInputs(map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 1, 64, 7)})
	if err != nil {
		t.Fatalf("H=64: %v", err)
	}
	if err := ct.CheckShapes(env); err != nil {
		t.Fatalf("H=64: %v", err)
	}
	if env, err = ct.BindInputs(map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 1, 4, 7)}); err != nil {
		t.Fatalf("H=4 binds: %v", err)
	}
	err = ct.CheckShapes(env)
	var ce *ContractError
	if !errors.As(err, &ce) || ce.Kind != KindShape {
		t.Fatalf("want shape violation for H=4, got %v", err)
	}
}

func TestVerifyExecutionPlan(t *testing.T) {
	g := graph.New("p")
	g.AddInput("x", tensor.Float32, lattice.FromInts(2))
	a := g.Op("Relu", "a", []string{"x"}, []string{"u"}, nil)
	b := g.Op("Relu", "b", []string{"u"}, []string{"v"}, nil)
	g.AddOutput("v")

	if err := VerifyExecutionPlan(g, []*graph.Node{a, b}); err != nil {
		t.Fatalf("valid order: %v", err)
	}
	var ce *ContractError
	if err := VerifyExecutionPlan(g, []*graph.Node{b, a}); !errors.As(err, &ce) || ce.Kind != KindExecPlan {
		t.Errorf("dep violation not caught: %v", err)
	}
	if err := VerifyExecutionPlan(g, []*graph.Node{a}); !errors.As(err, &ce) || ce.Kind != KindExecPlan {
		t.Errorf("missing node not caught: %v", err)
	}
	if err := VerifyExecutionPlan(g, []*graph.Node{a, a}); !errors.As(err, &ce) || ce.Kind != KindExecPlan {
		t.Errorf("duplicate node not caught: %v", err)
	}
	foreign := &graph.Node{Name: "zz", OpType: "Relu"}
	if err := VerifyExecutionPlan(g, []*graph.Node{a, foreign}); !errors.As(err, &ce) || ce.Kind != KindExecPlan {
		t.Errorf("foreign node not caught: %v", err)
	}
}

func TestCheckFinite(t *testing.T) {
	ok := map[string]*tensor.Tensor{"y": tensor.FromFloats([]int64{2}, []float32{1, -2})}
	if err := CheckFinite(ok); err != nil {
		t.Fatalf("finite outputs: %v", err)
	}
	bad := map[string]*tensor.Tensor{
		"y": tensor.FromFloats([]int64{2}, []float32{1, float32(math.NaN())})}
	var ce *ContractError
	if err := CheckFinite(bad); !errors.As(err, &ce) || ce.Kind != KindNumeric {
		t.Errorf("NaN not caught: %v", err)
	}
	inf := map[string]*tensor.Tensor{
		"y": tensor.FromFloats([]int64{1}, []float32{float32(math.Inf(1))})}
	if err := CheckFinite(inf); !errors.As(err, &ce) || ce.Kind != KindNumeric {
		t.Errorf("Inf not caught: %v", err)
	}
	// Non-float outputs are ignored.
	ints := map[string]*tensor.Tensor{"s": tensor.FromInts([]int64{1}, []int64{3})}
	if err := CheckFinite(ints); err != nil {
		t.Errorf("int outputs: %v", err)
	}
}

func TestTierAndDegradationStrings(t *testing.T) {
	if TierPlanned.String() != "planned" || TierDynamic.String() != "dynamic" || TierFloat32.String() != "float32" {
		t.Error("tier names")
	}
	d := Degradation{Reason: "H out of range", Kind: KindFact, From: TierPlanned, To: TierDynamic}
	s := d.String()
	for _, want := range []string{"planned", "dynamic", "fact", "H out of range"} {
		if !strings.Contains(s, want) {
			t.Errorf("degradation %q missing %q", s, want)
		}
	}
}
