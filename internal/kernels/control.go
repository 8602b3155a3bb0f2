package kernels

import (
	"repro/internal/lattice"
)

// switchForward: the paper's customized Switch operator takes a predicate
// plus one data tensor and routes the data to one (or more) of its
// outputs. Which path *executes* is decided at runtime (EDO), but every
// output carries the input data's shape — this is what allows SoD² to
// keep planning statically across control flow.
func switchForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	data := ctx.In[len(ctx.In)-1] // inputs: [pred, data]
	for i := range out {
		out[i].Shape = data.Shape
		out[i].Value = data.Value
	}
	return out, nil
}

func switchBackward(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	// The data input's shape is the meet of the outputs' shapes.
	s := lattice.UndefShape()
	for _, o := range ctx.Out {
		s = s.Meet(o.Shape)
	}
	if len(in) >= 2 {
		in[len(in)-1].Shape = s
	}
	return in, nil
}

// combineForward is the Merge transfer function: the output is the meet
// of all (possibly partially executed) branch results.
func combineForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	acc := lattice.UndefInfo()
	for _, in := range ctx.In {
		acc = acc.Meet(in)
	}
	out[0] = acc
	return out, nil
}

func combineBackward(ctx *InferCtx) ([]lattice.Info, error) {
	in := nInputs(ctx.Node)
	// Every branch result must agree with the combined output's shape.
	for i := range in {
		in[i].Shape = ctx.Out[0].Shape
	}
	return in, nil
}

// edoForward is the conservative transfer of If and Loop: all outputs ⊥.
// The RDP driver overrides it by analyzing branch bodies and meeting
// their results (constant-predicate Ifs collapse to one branch).
func edoForward(ctx *InferCtx) ([]lattice.Info, error) {
	out := nOutputs(ctx.Node)
	for i := range out {
		out[i] = lattice.Info{Shape: lattice.NACShape(), Value: lattice.NACValue()}
	}
	return out, nil
}

// The control-flow rows have no kernel: the executor runs them itself.
func init() {
	// <Switch, Combine>: the customized control-flow pair (§3, §7).
	Register(&Def{Type: "Switch", Class: EDO, Forward: switchForward, Backward: switchBackward})
	Register(&Def{Type: "Combine", Class: EDO, Forward: combineForward, Backward: combineBackward})
	// If/Loop: subgraph-carrying EDO ops.
	Register(&Def{Type: "If", Class: EDO, Forward: edoForward})
	Register(&Def{Type: "Loop", Class: EDO, Forward: edoForward})
}
