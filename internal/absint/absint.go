// Package absint is the region-proven value-flow abstract interpretation
// behind graph specialization. Where RDP (§4.1) propagates *shapes* and
// symbolic integer contents, this pass propagates strided-interval
// abstractions of integer tensor *values* through the graph for a whole
// verified input region, then decides which facts are strong enough to
// transform the graph: branch predicates that are region-constant,
// ISVDOS shape-determining values that are region-constant, and Loop
// trip counts with proven static bounds.
//
// The domain is symbolic.Interval per tensor element (⊤ = untracked).
// Seeds come from three sources, each a sound over-approximation:
//
//   - integer/bool initializers (point intervals, region-independent);
//   - the RDP fixed point's V-map: a tracked symbolic expression is
//     evaluated to an interval over the input region with
//     symbolic.IntervalOf (region-dependent iff the expression has free
//     symbols);
//   - transfer functions over the integer ops the shape-math chains are
//     built from (Add, Mul, Min, Max, Concat, Gather, Reshape, ...),
//     joined across <Switch, Combine> control-flow merges.
//
// Because seeds and transfers are each sound, their intersection is the
// analysis' refinement operator; the fixpoint is reached by sweeping the
// topological order until nothing changes (the graph is a DAG — Loop
// bodies are opaque nodes — so convergence is quick; a sweep bound
// guards it regardless). Every abstract value carries a RegionDep bit:
// whether its derivation consulted a region symbol. Facts with
// RegionDep=false hold for *every* input, not just in-region ones.
//
// No compile, serving path or verifier calls this package: on the ten
// evaluation models Specialize rewrites nothing (no branch pruned, value
// constified, loop bounded or node removed), so every tier serves the
// graph exactly as built. Specialize, Options and Certificate remain
// only because the wall-clock benchmark's traced run still times a
// compile.absint_ms stage through them; they go when that row does.
package absint

import (
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/ops"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// maxTrackedElems bounds the per-tensor element count the analysis
// tracks; larger integer tensors are ⊤ (they are data, not shape math).
const maxTrackedElems = 256

// maxSweeps bounds the chaos iteration. The graph is a DAG, so the
// fixpoint lands in a couple of sweeps; the bound is a safety net.
const maxSweeps = 16

// Value is the abstract contents of one integer tensor: one strided
// interval per element. A nil Elems means ⊤ (untracked).
type Value struct {
	Elems []symbolic.Interval
	// RegionDep reports the abstraction consulted a region symbol: the
	// fact holds for all shapes *in the region*, not universally.
	RegionDep bool
}

// Known reports whether the value is tracked at all.
func (v Value) Known() bool { return v.Elems != nil }

// Points returns the concrete contents when every element's interval is
// a single value.
func (v Value) Points() ([]int64, bool) {
	if v.Elems == nil {
		return nil, false
	}
	out := make([]int64, len(v.Elems))
	for i, iv := range v.Elems {
		if !iv.IsPoint() {
			return nil, false
		}
		out[i] = iv.Lo
	}
	return out, true
}

// Result is the fixpoint of the abstract interpretation.
type Result struct {
	// Values maps tensor names to abstract contents (⊤ values omitted).
	Values map[string]Value
	// TripBounds maps Loop node names to the proven trip-count interval
	// of their max-trip input.
	TripBounds map[string]Value
	// Sweeps is the number of full sweeps until the fixpoint.
	Sweeps int
	region map[string]symbolic.Interval
}

// Interpret runs the abstract interpretation to its fixpoint. infos is
// the RDP fixed point of g; region maps input symbols to their strided
// intervals (nil means an unconstrained region).
func Interpret(g *graph.Graph, infos map[string]lattice.Info, region map[string]symbolic.Interval) *Result {
	a := &interp{
		g:      g,
		infos:  infos,
		region: region,
		vals:   map[string]Value{},
	}
	a.seed()
	order, err := g.TopoSort()
	if err != nil {
		order = g.Nodes
	}
	sweeps := 0
	for sweeps < maxSweeps {
		sweeps++
		changed := false
		for _, n := range order {
			if a.transfer(n) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	res := &Result{Values: a.vals, TripBounds: map[string]Value{}, Sweeps: sweeps, region: region}
	for _, n := range g.Nodes {
		if n.OpType == "Loop" && len(n.Inputs) > 0 {
			if v, ok := a.vals[n.Inputs[0]]; ok && len(v.Elems) == 1 {
				res.TripBounds[n.Name] = v
			}
		}
	}
	return res
}

// Truth decides a scalar predicate: verdict is its provable truth value,
// known whether it is provable at all, regionDep whether the proof
// leaned on region facts.
func (r *Result) Truth(name string) (verdict, known, regionDep bool) {
	v, ok := r.Values[name]
	if !ok || len(v.Elems) != 1 {
		return false, false, false
	}
	iv := v.Elems[0]
	if !iv.Contains(0) {
		return true, true, v.RegionDep
	}
	if iv.IsPoint() && iv.Lo == 0 {
		return false, true, v.RegionDep
	}
	return false, false, false
}

type interp struct {
	g      *graph.Graph
	infos  map[string]lattice.Info
	region map[string]symbolic.Interval
	vals   map[string]Value
}

// seed installs the initializer and RDP-derived abstractions.
func (a *interp) seed() {
	for name, t := range a.g.Initializers {
		if v, ok := valueOfTensorInts(t); ok {
			a.vals[name] = v
		}
	}
	for name, info := range a.infos {
		if _, isInit := a.g.Initializers[name]; isInit {
			continue
		}
		if v, ok := a.valueOfLattice(info.Value); ok {
			a.vals[name] = v
		}
	}
}

// valueOfLattice evaluates an RDP value abstraction to intervals over
// the region.
func (a *interp) valueOfLattice(v lattice.ValueInfo) (Value, bool) {
	if v.Kind != lattice.ValueElems || len(v.Elems) > maxTrackedElems {
		return Value{}, false
	}
	out := Value{Elems: make([]symbolic.Interval, len(v.Elems))}
	for i, d := range v.Elems {
		if !d.IsExpr() {
			return Value{}, false
		}
		if c, ok := symbolic.IsConst(d.E); ok {
			out.Elems[i] = symbolic.Point(c)
			continue
		}
		iv, err := symbolic.IntervalOf(d.E, a.region)
		if err != nil || iv.IsEmpty() {
			return Value{}, false
		}
		out.Elems[i] = iv
		out.RegionDep = true
	}
	return out, true
}

// refine intersects a freshly computed abstraction into the map (both
// are sound, so their intersection is too); returns true on change.
func (a *interp) refine(name string, v Value) bool {
	if name == "" || !v.Known() || len(v.Elems) > maxTrackedElems {
		return false
	}
	old, ok := a.vals[name]
	if !ok || len(old.Elems) != len(v.Elems) {
		if ok {
			return false // rank disagreement: keep the seed
		}
		a.vals[name] = v
		return true
	}
	changed := false
	merged := Value{Elems: make([]symbolic.Interval, len(v.Elems)), RegionDep: old.RegionDep && v.RegionDep}
	for i := range v.Elems {
		iv := old.Elems[i].Intersect(v.Elems[i])
		if iv.IsEmpty() {
			// Contradiction (an empty region slipped through): keep the
			// old abstraction rather than asserting falsehood.
			return false
		}
		merged.Elems[i] = iv
		if iv != old.Elems[i] {
			changed = true
		}
	}
	if merged.RegionDep != old.RegionDep {
		changed = true
	}
	if changed {
		a.vals[name] = merged
	}
	return changed
}

func (a *interp) in(n *graph.Node, i int) (Value, bool) {
	if i >= len(n.Inputs) || n.Inputs[i] == "" {
		return Value{}, false
	}
	v, ok := a.vals[n.Inputs[i]]
	return v, ok
}

// transfer applies one node's transfer function; returns true on change.
func (a *interp) transfer(n *graph.Node) bool {
	switch n.OpType {
	case "Add", "Mul", "Min", "Max":
		x, okX := a.in(n, 0)
		y, okY := a.in(n, 1)
		if !okX || !okY || len(n.Outputs) == 0 {
			return false
		}
		out, ok := broadcastBinary(n.OpType, x, y)
		if !ok {
			return false
		}
		return a.refine(n.Outputs[0], out)
	case "Identity", "Unsqueeze", "Squeeze", "Cast", "Flatten":
		x, ok := a.in(n, 0)
		if !ok || len(n.Outputs) == 0 {
			return false
		}
		return a.refine(n.Outputs[0], x)
	case "Reshape":
		// Reshape permutes nothing: contents are the flat input contents.
		x, ok := a.in(n, 0)
		if !ok || len(n.Outputs) == 0 {
			return false
		}
		return a.refine(n.Outputs[0], x)
	case "Concat":
		if len(n.Outputs) == 0 {
			return false
		}
		var elems []symbolic.Interval
		dep := false
		for i := range n.Inputs {
			v, ok := a.in(n, i)
			if !ok {
				return false
			}
			elems = append(elems, v.Elems...)
			dep = dep || v.RegionDep
		}
		return a.refine(n.Outputs[0], Value{Elems: elems, RegionDep: dep})
	case "Gather":
		data, okD := a.in(n, 0)
		idx, okI := a.in(n, 1)
		if !okD || !okI || len(n.Outputs) == 0 {
			return false
		}
		pts, ok := idx.Points()
		if !ok {
			return false
		}
		out := Value{Elems: make([]symbolic.Interval, len(pts)), RegionDep: data.RegionDep || idx.RegionDep}
		for i, p := range pts {
			if p < 0 {
				p += int64(len(data.Elems))
			}
			if p < 0 || p >= int64(len(data.Elems)) {
				return false
			}
			out.Elems[i] = data.Elems[p]
		}
		return a.refine(n.Outputs[0], out)
	case "ReduceMax", "ReduceMin":
		x, ok := a.in(n, 0)
		if !ok || len(n.Outputs) == 0 || len(x.Elems) == 0 {
			return false
		}
		isMin := n.OpType == "ReduceMin"
		acc := x.Elems[0]
		for _, iv := range x.Elems[1:] {
			acc = extreme(acc, iv, isMin)
		}
		return a.refine(n.Outputs[0], Value{Elems: []symbolic.Interval{acc}, RegionDep: x.RegionDep})
	case "Greater", "Less":
		x, okX := a.in(n, 0)
		y, okY := a.in(n, 1)
		if !okX || !okY || len(n.Outputs) == 0 || len(x.Elems) != 1 || len(y.Elems) != 1 {
			return false
		}
		xi, yi := x.Elems[0], y.Elems[0]
		if n.OpType == "Less" {
			xi, yi = yi, xi
		}
		var iv symbolic.Interval
		switch {
		case xi.Lo > yi.Hi:
			iv = symbolic.Point(1)
		case xi.Hi <= yi.Lo:
			iv = symbolic.Point(0)
		default:
			iv = symbolic.NewInterval(0, 1, 1)
		}
		return a.refine(n.Outputs[0], Value{Elems: []symbolic.Interval{iv}, RegionDep: x.RegionDep || y.RegionDep})
	case "Switch":
		// The routed outputs carry the data input's contents.
		data, ok := a.in(n, 1)
		if !ok {
			return false
		}
		changed := false
		for _, o := range n.Outputs {
			if o != "" && a.refine(o, data) {
				changed = true
			}
		}
		return changed
	case "Combine":
		// Control-flow merge: the join (interval hull) of the inputs.
		if len(n.Outputs) == 0 {
			return false
		}
		var acc Value
		first := true
		for i := range n.Inputs {
			v, ok := a.in(n, i)
			if !ok {
				return false
			}
			if first {
				acc = v
				first = false
				continue
			}
			if len(v.Elems) != len(acc.Elems) {
				return false
			}
			hull := Value{Elems: make([]symbolic.Interval, len(acc.Elems)), RegionDep: acc.RegionDep || v.RegionDep}
			for j := range acc.Elems {
				hull.Elems[j] = hullIv(acc.Elems[j], v.Elems[j])
			}
			acc = hull
		}
		if first {
			return false
		}
		return a.refine(n.Outputs[0], acc)
	}
	return false
}

// broadcastBinary applies an elementwise integer op over two abstract
// values with scalar broadcast.
func broadcastBinary(op string, x, y Value) (Value, bool) {
	nx, ny := len(x.Elems), len(y.Elems)
	n := nx
	if ny > n {
		n = ny
	}
	if nx != ny && nx != 1 && ny != 1 {
		return Value{}, false
	}
	out := Value{Elems: make([]symbolic.Interval, n), RegionDep: x.RegionDep || y.RegionDep}
	for i := 0; i < n; i++ {
		xi := x.Elems[i%nx]
		yi := y.Elems[i%ny]
		iv, ok := binaryIv(op, xi, yi)
		if !ok {
			return Value{}, false
		}
		out.Elems[i] = iv
	}
	return out, true
}

// binaryIv evaluates one elementwise integer op over intervals by
// substituting them into the symbolic interval evaluator — the same
// machinery the fuzz target FuzzIntervalSoundness pins down.
func binaryIv(op string, x, y symbolic.Interval) (symbolic.Interval, bool) {
	env := map[string]symbolic.Interval{"x": x, "y": y}
	sx, sy := symbolic.NewSym("x"), symbolic.NewSym("y")
	var e symbolic.Expr
	switch op {
	case "Add":
		e = symbolic.Add(sx, sy)
	case "Mul":
		e = symbolic.Mul(sx, sy)
	case "Min":
		e = symbolic.Min(sx, sy)
	case "Max":
		e = symbolic.Max(sx, sy)
	default:
		return symbolic.Interval{}, false
	}
	iv, err := symbolic.IntervalOf(e, env)
	if err != nil || iv.IsEmpty() {
		return symbolic.Interval{}, false
	}
	return iv, true
}

func extreme(a, b symbolic.Interval, isMin bool) symbolic.Interval {
	var e symbolic.Expr
	sx, sy := symbolic.NewSym("x"), symbolic.NewSym("y")
	if isMin {
		e = symbolic.Min(sx, sy)
	} else {
		e = symbolic.Max(sx, sy)
	}
	iv, err := symbolic.IntervalOf(e, map[string]symbolic.Interval{"x": a, "y": b})
	if err != nil {
		return symbolic.NewInterval(minI(a.Lo, b.Lo), maxI(a.Hi, b.Hi), 1)
	}
	return iv
}

// hullIv is the interval join (smallest strided interval covering both).
func hullIv(a, b symbolic.Interval) symbolic.Interval {
	lo, hi := minI(a.Lo, b.Lo), maxI(a.Hi, b.Hi)
	// The hull's stride divides both strides and the offset between them.
	s := gcdI(a.Stride, b.Stride)
	s = gcdI(s, absI(a.Lo-b.Lo))
	if s <= 0 {
		s = 1
	}
	return symbolic.NewInterval(lo, hi, s)
}

func valueOfTensorInts(t *tensor.Tensor) (Value, bool) {
	var ints []int64
	switch t.DType {
	case tensor.Int64:
		ints = t.I
	case tensor.Bool:
		ints = make([]int64, len(t.B))
		for i, b := range t.B {
			if b {
				ints[i] = 1
			}
		}
	default:
		return Value{}, false
	}
	if len(ints) > maxTrackedElems {
		return Value{}, false
	}
	elems := make([]symbolic.Interval, len(ints))
	for i, v := range ints {
		elems[i] = symbolic.Point(v)
	}
	return Value{Elems: elems}, true
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func absI(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func gcdI(a, b int64) int64 {
	a, b = absI(a), absI(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ISVDOSInputs returns the indexes of n's inputs that determine the
// output shape by *value* — the inputs worth constifying when proven
// region-constant. For an ISVDOS-class op that is every non-data input;
// the data input (index 0 by ONNX convention for the ops in the
// registry) is excluded.
func ISVDOSInputs(n *graph.Node) []int {
	if ops.ClassOf(n.OpType) != ops.ISVDOS {
		return nil
	}
	var out []int
	start := 1
	if n.OpType == "Range" || n.OpType == "ConstantOfShape" {
		start = 0 // every input is shape-determining
	}
	for i := start; i < len(n.Inputs); i++ {
		if n.Inputs[i] != "" {
			out = append(out, i)
		}
	}
	return out
}
