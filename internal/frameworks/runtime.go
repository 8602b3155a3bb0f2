package frameworks

import (
	"repro/internal/dtypes"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/memplan"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// PlanArena performs SoD²'s runtime memory-plan generation (§4.4.1) for
// one concrete set of inputs, *without executing anything*: the inputs'
// dims bind the model's symbolic constants, every RDP-resolved
// intermediate shape evaluates to a concrete size, liveness follows from
// the planned execution order, and the peak-first planner assigns
// offsets in one arena. Values RDP could not resolve (⊥ shapes,
// control-flow merges) fall back to dynamic allocation at run time.
func (c *Compiled) PlanArena(inputs map[string]*tensor.Tensor) (*exec.Arena, error) {
	env, err := c.Contract().BindInputs(inputs)
	if err != nil {
		return nil, err
	}
	plan, prog := memProgram(c.Graph, c.ExecPlan.Order, c.Infos, env, c.valueDTypes())
	if err := plan.Validate(prog); err != nil {
		return nil, err
	}
	l := memplan.NewLayout(plan, prog)
	return exec.NewArena(l.Index, l.Offsets, l.Sizes, make([]float32, (l.ArenaSize+3)/4)), nil
}

// valueDTypes lazily infers (and caches) the value→dtype map for the
// compiled graph; every arena program and memory proof shares one map.
func (c *Compiled) valueDTypes() dtypes.Map {
	c.dtypesOnce.Do(func() {
		c.dtypesMap = dtypes.Infer(c.Graph)
	})
	return c.dtypesMap
}

// memProgram derives the liveness program for an execution order under a
// bound symbol environment and runs the peak-first planner over it.
// Only values inferred float32 enter the placement program: the runtime
// arena places exclusively float32 tensors, so planning a slot for an
// int64/bool/quantized value would reserve bytes no execution claims —
// excluding them keeps the plan tight and keeps a dtype mis-inference
// fail-safe (the value falls back to dynamic allocation; it can never
// alias a planned buffer).
func memProgram(g *graph.Graph, order []*graph.Node, infos map[string]lattice.Info, env symbolic.Env, dts dtypes.Map) (*memplan.Plan, *memplan.Program) {
	keep := map[string]bool{}
	for _, o := range g.Outputs {
		keep[o] = true
	}
	var steps []memplan.StepSpec
	for _, n := range order {
		var st memplan.StepSpec
		if !isControlFlow(n.OpType) {
			for _, o := range n.Outputs {
				if o == "" || !dts.IsFloat(o) {
					continue
				}
				size := evalBytes(infos[o].Shape, env)
				if size > 0 {
					st.Produces = append(st.Produces, memplan.NamedSize{Name: o, Size: size})
				}
			}
		}
		for _, in := range n.Inputs {
			if in != "" && !g.IsGraphInput(in) {
				if _, isConst := g.Initializers[in]; !isConst {
					st.Consumes = append(st.Consumes, in)
				}
			}
		}
		steps = append(steps, st)
	}
	prog := memplan.FromSteps(steps, keep)
	return memplan.PeakFirst(prog), prog
}

// RunWithArena plans the arena for the inputs and executes into it.
func (c *Compiled) RunWithArena(inputs map[string]*tensor.Tensor) (*exec.Result, *exec.Arena, error) {
	arena, err := c.PlanArena(inputs)
	if err != nil {
		return nil, nil, err
	}
	res, err := exec.Run(c.Graph, inputs, exec.Options{
		Order: c.ExecPlan.Order,
		Arena: arena,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, arena, nil
}

func isControlFlow(op string) bool {
	switch op {
	case "Switch", "Combine", "If", "Loop":
		return true
	}
	return false
}

// evalBytes evaluates a lattice shape's byte size under env (float32
// element size; 0 when the shape cannot be resolved statically).
func evalBytes(s lattice.Shape, env symbolic.Env) int64 {
	if s.Kind != lattice.ShapeRanked {
		return 0
	}
	n := int64(1)
	for _, d := range s.Dims {
		if !d.IsExpr() {
			return 0
		}
		v, err := d.E.Eval(env)
		if err != nil || v < 0 {
			return 0
		}
		n *= v
	}
	return n * 4
}
