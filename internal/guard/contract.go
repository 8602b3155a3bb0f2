package guard

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/rdp"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// Contract binds a compiled model's static analysis artifacts for
// runtime verification: the graph and the RDP fixed point. The input
// region a request must bind inside is the model's staticverify.Region.
type Contract struct {
	Graph *graph.Graph
	Infos map[string]lattice.Info
}

// NewContract builds a contract over an analyzed graph. Infos may be
// nil, in which case only the declared input shapes are enforced.
func NewContract(g *graph.Graph, infos map[string]lattice.Info) *Contract {
	return &Contract{Graph: g, Infos: infos}
}

// inputShape returns the shape the analysis holds for an input.
func (c *Contract) inputShape(in graph.ValueDef) lattice.Shape {
	if c.Infos != nil {
		if info, ok := c.Infos[in.Name]; ok && info.Shape.Kind == lattice.ShapeRanked {
			return info.Shape
		}
	}
	return in.Shape
}

// BindInputs unifies the concrete inputs with the analyzed symbolic
// input shapes, returning the symbol environment. Missing inputs,
// dtype mismatches, empty inputs, and shape contradictions come back as
// structured ContractErrors.
func (c *Contract) BindInputs(inputs map[string]*tensor.Tensor) (symbolic.Env, error) {
	env := symbolic.Env{}
	for _, in := range c.Graph.Inputs {
		t := inputs[in.Name]
		if t == nil {
			return nil, &ContractError{Kind: KindInput,
				Detail: fmt.Sprintf("missing input %q", in.Name)}
		}
		if t.DType != in.DType {
			return nil, &ContractError{Kind: KindInput,
				Detail: fmt.Sprintf("input %q dtype %s, declared %s", in.Name, t.DType, in.DType)}
		}
		// An empty input is outside every analyzed range, and the
		// kernels a degraded tier would run it on index into it.
		if d := slices.Index(t.Shape, 0); d >= 0 {
			return nil, &ContractError{Kind: KindInput,
				Detail: fmt.Sprintf("input %q shape %v has a zero extent in dimension %d", in.Name, t.Shape, d)}
		}
		if err := rdp.BindShapes(c.inputShape(in), t.Shape, env); err != nil {
			return env, &ContractError{Kind: KindBind,
				Detail: fmt.Sprintf("input %q shape %v contradicts analyzed shape %s",
					in.Name, t.Shape, c.inputShape(in)), Cause: err}
		}
	}
	return env, nil
}

// CheckShapes evaluates every RDP-resolved intermediate shape under the
// bound symbols and rejects negative extents (a Conv shrinking its
// input below the kernel size, a Slice past the end, ...). Shapes with
// unbound symbols or ⊥/⊤ dims are skipped — they take the dynamic
// allocation path by construction.
func (c *Contract) CheckShapes(env symbolic.Env) error {
	if c.Infos == nil {
		return nil
	}
	names := make([]string, 0, len(c.Infos))
	for name := range c.Infos {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := c.Infos[name].Shape
		if s.Kind != lattice.ShapeRanked {
			continue
		}
		for i, d := range s.Dims {
			if !d.IsExpr() {
				continue
			}
			v, err := d.E.Eval(env)
			if err != nil {
				continue // unbound symbol: dynamic fallback handles it
			}
			if v < 0 {
				return &ContractError{Kind: KindShape,
					Detail: fmt.Sprintf("value %q dim %d: %s evaluates to %d under the bound inputs",
						name, i, d.E, v)}
			}
		}
	}
	return nil
}

// VerifyExecutionPlan statically checks that order is a valid schedule
// of g: every node scheduled exactly once and every input produced
// before its consumer runs.
func VerifyExecutionPlan(g *graph.Graph, order []*graph.Node) error {
	if len(order) != len(g.Nodes) {
		return &ContractError{Kind: KindExecPlan,
			Detail: fmt.Sprintf("plan schedules %d of %d nodes", len(order), len(g.Nodes))}
	}
	inGraph := make(map[*graph.Node]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		inGraph[n] = true
	}
	seen := make(map[*graph.Node]bool, len(order))
	defined := map[string]bool{}
	for _, in := range g.Inputs {
		defined[in.Name] = true
	}
	for name := range g.Initializers {
		defined[name] = true
	}
	for _, n := range order {
		if !inGraph[n] {
			return &ContractError{Kind: KindExecPlan,
				Detail: fmt.Sprintf("plan schedules foreign node %q", n.Name)}
		}
		if seen[n] {
			return &ContractError{Kind: KindExecPlan,
				Detail: fmt.Sprintf("node %q scheduled twice", n.Name)}
		}
		seen[n] = true
		for _, in := range n.Inputs {
			if in != "" && !defined[in] {
				return &ContractError{Kind: KindExecPlan,
					Detail: fmt.Sprintf("node %q runs before its input %q is produced", n.Name, in)}
			}
		}
		for _, o := range n.Outputs {
			if o != "" {
				defined[o] = true
			}
		}
	}
	return nil
}

// CheckFinite scans output tensors for NaN/Inf values — the last line
// of defense against silent corruption (an overlapping arena write, a
// corrupted kernel) escaping into downstream systems.
func CheckFinite(outputs map[string]*tensor.Tensor) error {
	names := make([]string, 0, len(outputs))
	for name := range outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := outputs[name]
		if t == nil || t.DType != tensor.Float32 {
			continue
		}
		for i, v := range t.F {
			if f64 := float64(v); math.IsNaN(f64) || math.IsInf(f64, 0) {
				return &ContractError{Kind: KindNumeric,
					Detail: fmt.Sprintf("output %q element %d is %v", name, i, v)}
			}
		}
	}
	return nil
}
