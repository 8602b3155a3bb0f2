// Package rdp implements SoD²'s Rank and Dimension Propagation analysis
// (paper §4.1, Alg. 1): an iterative forward + backward data-flow analysis
// over the extended computational graph that maps every tensor to a
// lattice element — known constant, symbolic constant, op-inferred
// constant, or nac — for both its shape (S-map) and its integer contents
// (V-map). The analysis is the enabler for every downstream optimization:
// fusion, execution planning, memory planning, and multi-version codegen.
package rdp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// Result is the fixed point of the RDP analysis.
type Result struct {
	// Infos maps every value name to its inferred lattice info.
	Infos map[string]lattice.Info
	// Iterations is the number of chaos-algorithm sweeps until convergence.
	Iterations int
	// BackwardResolved counts tensors whose shape was only resolved by a
	// backward transfer (ablation metric).
	BackwardResolved int
}

// Options tune the analysis (primarily for ablation benches).
type Options struct {
	// DisableBackward turns off backward transfer functions.
	DisableBackward bool
	// MaxIterations bounds the chaos iteration (safety net; the lattice
	// guarantees convergence long before this).
	MaxIterations int
	// SymPrefix prefixes generated fresh symbols (default "s").
	SymPrefix string
}

type analyzer struct {
	g        *graph.Graph
	opts     Options
	infos    map[string]lattice.Info
	symCount int
	backward map[string]bool // values resolved by backward transfer
}

// Analyze runs RDP to a fixed point over g. Input shapes come from the
// graph's input declarations (which may contain symbolic dims); overrides,
// if non-nil, replaces declared input shapes by name.
func Analyze(g *graph.Graph, overrides map[string]lattice.Shape, opts Options) (*Result, error) {
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 100
	}
	if opts.SymPrefix == "" {
		opts.SymPrefix = "s"
	}
	a := &analyzer{g: g, opts: opts, infos: map[string]lattice.Info{}, backward: map[string]bool{}}

	sorted, err := g.TopoSort()
	if err != nil {
		return nil, err
	}

	// Initialize every value as undef (Alg. 1 lines 1–2)...
	for _, name := range g.ValueNames() {
		a.infos[name] = lattice.UndefInfo()
	}
	// ...then set model input shapes (line 3), minting fresh symbols for
	// declared-but-unknown dims so downstream relations are still tracked.
	for _, in := range g.Inputs {
		s := in.Shape
		if ov, ok := overrides[in.Name]; ok {
			s = ov
		}
		if s.Kind == lattice.ShapeRanked {
			dims := make([]lattice.Dim, len(s.Dims))
			for i, d := range s.Dims {
				if d.IsUndef() {
					dims[i] = lattice.FromExpr(a.freshSym(in.Name))
				} else {
					dims[i] = d
				}
			}
			s = lattice.Ranked(dims...)
		}
		a.infos[in.Name] = lattice.Info{Shape: s, Value: lattice.UndefValue()}
	}
	// Constant tensors carry full info.
	for name, t := range g.Initializers {
		a.infos[name] = kernels.InfoForInitializer(t)
	}
	// Overrides may also pin intermediate or output shapes (the paper's
	// Fig. 3(b) scenario: a known model output shape propagated backward).
	for name, s := range overrides {
		if !g.IsGraphInput(name) {
			a.fillInfo(name, lattice.Info{Shape: s, Value: lattice.UndefValue()}, false)
		}
	}

	// The optimized chaos iteration (lines 4–19).
	iter := 0
	for {
		iter++
		if iter > opts.MaxIterations {
			return nil, fmt.Errorf("rdp: no convergence after %d iterations on %s", opts.MaxIterations, g.Name)
		}
		changed := false
		for _, n := range sorted {
			ch, err := a.transferNode(n)
			if err != nil {
				return nil, fmt.Errorf("rdp: node %s(%s): %w", n.Name, n.OpType, err)
			}
			changed = changed || ch
		}
		if !changed {
			break
		}
	}
	return &Result{Infos: a.infos, Iterations: iter, BackwardResolved: len(a.backward)}, nil
}

func (a *analyzer) freshSym(hint string) symbolic.Expr {
	a.symCount++
	return symbolic.NewSym(fmt.Sprintf("%s%d_%s", a.opts.SymPrefix, a.symCount, hint))
}

// fillDim lets new information resolve a still-undef slot without ever
// overwriting resolved information — the monotone "resolve once"
// discipline that keeps forward and backward transfers from fighting.
func fillDim(old, new lattice.Dim) (lattice.Dim, bool) {
	if old.IsUndef() && !new.IsUndef() {
		return new, true
	}
	return old, false
}

func fillShape(old, new lattice.Shape) (lattice.Shape, bool) {
	if new.Kind == lattice.ShapeUndef {
		return old, false
	}
	if old.Kind == lattice.ShapeUndef {
		return new, true
	}
	if old.Kind == lattice.ShapeRanked && new.Kind == lattice.ShapeRanked && len(old.Dims) == len(new.Dims) {
		changed := false
		dims := make([]lattice.Dim, len(old.Dims))
		for i := range dims {
			var ch bool
			dims[i], ch = fillDim(old.Dims[i], new.Dims[i])
			changed = changed || ch
		}
		if changed {
			return lattice.Ranked(dims...), true
		}
	}
	return old, false
}

func fillValue(old, new lattice.ValueInfo) (lattice.ValueInfo, bool) {
	if new.Kind == lattice.ValueUndef {
		return old, false
	}
	if old.Kind == lattice.ValueUndef {
		return new, true
	}
	if old.Kind == lattice.ValueElems && new.Kind == lattice.ValueElems && len(old.Elems) == len(new.Elems) {
		changed := false
		elems := make([]lattice.Dim, len(old.Elems))
		for i := range elems {
			var ch bool
			elems[i], ch = fillDim(old.Elems[i], new.Elems[i])
			changed = changed || ch
		}
		if changed {
			return lattice.ElemsValue(elems...), true
		}
	}
	return old, false
}

func (a *analyzer) fillInfo(name string, in lattice.Info, viaBackward bool) bool {
	cur := a.infos[name]
	s, ch1 := fillShape(cur.Shape, in.Shape)
	v, ch2 := fillValue(cur.Value, in.Value)
	if ch1 || ch2 {
		a.infos[name] = lattice.Info{Shape: s, Value: v}
		if viaBackward && ch1 {
			a.backward[name] = true
		}
		return true
	}
	return false
}

func (a *analyzer) ctxFor(n *graph.Node) *kernels.InferCtx {
	in := make([]lattice.Info, len(n.Inputs))
	for i, name := range n.Inputs {
		if name == "" {
			in[i] = lattice.UndefInfo()
		} else {
			in[i] = a.infos[name]
		}
	}
	out := make([]lattice.Info, len(n.Outputs))
	for i, name := range n.Outputs {
		if name == "" {
			out[i] = lattice.UndefInfo()
		} else {
			out[i] = a.infos[name]
		}
	}
	return &kernels.InferCtx{
		Node:     n,
		In:       in,
		Out:      out,
		FreshSym: a.freshSym,
		Initializer: func(name string) *tensor.Tensor {
			return a.g.Initializers[name]
		},
	}
}

// transferNode applies forward then backward transfer for one node,
// mirroring the body of the chaos loop in Alg. 1.
func (a *analyzer) transferNode(n *graph.Node) (bool, error) {
	changed := false

	// Subgraph-carrying EDO ops get driver-level handling.
	switch n.OpType {
	case "If":
		ch, err := a.transferIf(n)
		return ch, err
	case "Loop":
		ch, err := a.transferLoop(n)
		return ch, err
	}

	def, ok := kernels.Get(n.OpType)
	if !ok {
		// Unknown operator: conservatively ⊥ everything it produces.
		for _, o := range n.Outputs {
			if o != "" {
				if a.fillInfo(o, lattice.Info{Shape: lattice.NACShape(), Value: lattice.NACValue()}, false) {
					changed = true
				}
			}
		}
		return changed, nil
	}

	// ① Forward transfer to the current node.
	ctx := a.ctxFor(n)
	outs, err := def.Forward(ctx)
	if err != nil {
		return changed, err
	}
	for i, o := range n.Outputs {
		if o == "" || i >= len(outs) {
			continue
		}
		if a.fillInfo(o, outs[i], false) {
			changed = true
		}
	}

	// ② Backward transfer to predecessors (skipped for graph inputs with
	// declared shapes and for constants; gated per Alg. 1 on the target
	// still having undef results).
	if !a.opts.DisableBackward && def.Backward != nil {
		needs := false
		for _, inName := range n.Inputs {
			if inName == "" {
				continue
			}
			info := a.infos[inName]
			if info.Shape.IsUndef() || (info.Shape.Kind == lattice.ShapeRanked && !info.Shape.AllExpr()) {
				needs = true
				break
			}
		}
		if needs {
			ctx = a.ctxFor(n) // re-read after forward updates
			ins, err := def.Backward(ctx)
			if err != nil {
				return changed, err
			}
			for i, inName := range n.Inputs {
				if inName == "" || i >= len(ins) {
					continue
				}
				if _, isConst := a.g.Initializers[inName]; isConst {
					continue
				}
				if a.fillInfo(inName, ins[i], true) {
					changed = true
				}
			}
		}
	}
	return changed, nil
}

// transferIf analyzes If branch bodies. Branch subgraphs declare inputs
// positionally bound to the If node's inputs[1:]. When the predicate is a
// known constant the untaken branch is ignored entirely (constant
// propagation turning EDO into something analyzable — §3 "Discussion").
func (a *analyzer) transferIf(n *graph.Node) (bool, error) {
	thenG := n.AttrGraph("then_branch")
	elseG := n.AttrGraph("else_branch")
	if thenG == nil || elseG == nil {
		return a.fillAllNAC(n), nil
	}
	condKnown, condVal := false, int64(0)
	if len(n.Inputs) > 0 && n.Inputs[0] != "" {
		if v, ok := a.infos[n.Inputs[0]].Value.Ints(); ok && len(v) == 1 {
			condKnown, condVal = true, v[0]
		}
	}
	run := func(body *graph.Graph) ([]lattice.Info, error) {
		overrides := map[string]lattice.Shape{}
		for i, in := range body.Inputs {
			if i+1 < len(n.Inputs) && n.Inputs[i+1] != "" {
				overrides[in.Name] = a.infos[n.Inputs[i+1]].Shape
			}
		}
		res, err := Analyze(body, overrides, a.opts)
		if err != nil {
			return nil, err
		}
		out := make([]lattice.Info, len(body.Outputs))
		for i, o := range body.Outputs {
			out[i] = res.Infos[o]
		}
		return out, nil
	}
	var merged []lattice.Info
	switch {
	case condKnown && condVal != 0:
		o, err := run(thenG)
		if err != nil {
			return false, err
		}
		merged = o
	case condKnown:
		o, err := run(elseG)
		if err != nil {
			return false, err
		}
		merged = o
	default:
		to, err := run(thenG)
		if err != nil {
			return false, err
		}
		eo, err := run(elseG)
		if err != nil {
			return false, err
		}
		merged = make([]lattice.Info, len(to))
		for i := range to {
			if i < len(eo) {
				merged[i] = to[i].Meet(eo[i])
			} else {
				merged[i] = to[i]
			}
		}
	}
	changed := false
	for i, o := range n.Outputs {
		if o == "" || i >= len(merged) {
			continue
		}
		if a.fillInfo(o, merged[i], false) {
			changed = true
		}
	}
	return changed, nil
}

// transferLoop analyzes a Loop body once: if the loop-carried outputs are
// shape-invariant (body output shape equals body input shape), the loop's
// outputs inherit that shape; otherwise they are ⊥.
func (a *analyzer) transferLoop(n *graph.Node) (bool, error) {
	body := n.AttrGraph("body")
	if body == nil {
		return a.fillAllNAC(n), nil
	}
	// Body inputs: [iter, cond, carried...]; bound to n.Inputs [trip, cond, carried...].
	overrides := map[string]lattice.Shape{}
	for i, in := range body.Inputs {
		if i < len(n.Inputs) && n.Inputs[i] != "" {
			overrides[in.Name] = a.infos[n.Inputs[i]].Shape
		}
	}
	res, err := Analyze(body, overrides, a.opts)
	if err != nil {
		return false, err
	}
	changed := false
	// Body outputs: [cond, carried...]; node outputs: [carried...].
	for i, o := range n.Outputs {
		if o == "" {
			continue
		}
		bodyOutIdx := i + 1
		carriedInIdx := i + 2
		if bodyOutIdx >= len(body.Outputs) || carriedInIdx >= len(n.Inputs) {
			continue
		}
		outInfo := res.Infos[body.Outputs[bodyOutIdx]]
		inShape := a.infos[n.Inputs[carriedInIdx]].Shape
		if outInfo.Shape.Kind == lattice.ShapeRanked && outInfo.Shape.Equal(inShape) {
			if a.fillInfo(o, lattice.Info{Shape: inShape, Value: lattice.UndefValue()}, false) {
				changed = true
			}
		} else {
			if a.fillInfo(o, lattice.Info{Shape: lattice.NACShape(), Value: lattice.NACValue()}, false) {
				changed = true
			}
		}
	}
	return changed, nil
}

func (a *analyzer) fillAllNAC(n *graph.Node) bool {
	changed := false
	for _, o := range n.Outputs {
		if o != "" && a.fillInfo(o, lattice.Info{Shape: lattice.NACShape(), Value: lattice.NACValue()}, false) {
			changed = true
		}
	}
	return changed
}
