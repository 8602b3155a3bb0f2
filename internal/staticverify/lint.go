package staticverify

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/lattice"
	"repro/internal/symbolic"
)

// Lint runs the structural and range-fact lint pass over a graph:
//
//   - dead-node: a node none of whose outputs is consumed or exported.
//   - unreachable-branch: an If (or Switch) whose predicate is provably
//     constant under the RDP facts and the input region.
//   - const-foldable: a computable node whose every input is a
//     compile-time constant — a fold opportunity internal/fold missed.
//   - isvdos-const: an ISVDOS operator (Reshape, Range, ...) whose
//     shape-determining input value RDP proved constant — the dynamic
//     shape could be specialized statically.
//   - contradiction: an input-region symbol whose constraint set is
//     unsatisfiable (empty interval).
//   - unbounded-symbol: a symbolic input dimension with no analyzed
//     range, which blocks every region proof for sizes that use it.
func Lint(g *graph.Graph, infos map[string]lattice.Info, region Region) []Diagnostic {
	var diags []Diagnostic

	// Region-level findings.
	regionSyms := make([]string, 0, len(region))
	for s := range region {
		regionSyms = append(regionSyms, s)
	}
	sort.Strings(regionSyms)
	for _, s := range regionSyms {
		if region[s].IsEmpty() {
			diags = append(diags, Diagnostic{
				Code: "contradiction", Severity: Error, Value: s,
				Detail: fmt.Sprintf("input symbol %q has contradictory constraints: no value satisfies them", s),
			})
		}
	}
	for s := range inputSymbols(g, infos) {
		if _, ok := region[s]; !ok {
			diags = append(diags, Diagnostic{
				Code: "unbounded-symbol", Severity: Warn, Value: s,
				Detail: fmt.Sprintf("input symbol %q has no analyzed range; region proofs over it are unprovable", s),
			})
		}
	}

	consumers := g.Consumers()
	exported := make(map[string]bool, len(g.Outputs))
	for _, o := range g.Outputs {
		exported[o] = true
	}
	for _, n := range g.Nodes {
		diags = append(diags, lintNode(g, n, infos, region, consumers, exported)...)
	}
	return diags
}

func lintNode(g *graph.Graph, n *graph.Node, infos map[string]lattice.Info,
	region Region, consumers map[string][]*graph.Node, exported map[string]bool) []Diagnostic {

	var diags []Diagnostic

	// dead-node: nothing downstream ever observes this node.
	dead := true
	for _, o := range n.Outputs {
		if o != "" && (len(consumers[o]) > 0 || exported[o]) {
			dead = false
			break
		}
	}
	if dead {
		diags = append(diags, Diagnostic{
			Code: "dead-node", Severity: Warn, Node: n.Name,
			Detail: fmt.Sprintf("%s node: no output is consumed or exported", n.OpType),
		})
	}

	// unreachable-branch: predicate provably constant over the region.
	switch n.OpType {
	case "If":
		if len(n.Inputs) > 0 {
			if verdict, known := constTruth(infos[n.Inputs[0]].Value, region); known {
				branch := "else"
				if !verdict {
					branch = "then"
				}
				diags = append(diags, Diagnostic{
					Code: "unreachable-branch", Severity: Info, Node: n.Name, Value: n.Inputs[0],
					Detail: fmt.Sprintf("condition is provably %v for every shape in the region; %s branch is unreachable", verdict, branch),
				})
			}
		}
	case "Switch":
		if len(n.Inputs) >= 2 {
			if verdict, known := constTruth(infos[n.Inputs[0]].Value, region); known {
				diags = append(diags, Diagnostic{
					Code: "unreachable-branch", Severity: Info, Node: n.Name, Value: n.Inputs[0],
					Detail: fmt.Sprintf("predicate is provably %v for every shape in the region; the other route never executes", verdict),
				})
			}
		}
	}

	if controlFlowOp(n.OpType) {
		return diags
	}

	// const-foldable: every input is an initializer (or omitted) — the
	// node's result is a compile-time constant internal/fold left behind.
	foldable := len(n.Inputs) > 0
	for _, in := range n.Inputs {
		if in == "" {
			continue
		}
		if _, isConst := g.Initializers[in]; !isConst {
			foldable = false
			break
		}
	}
	if foldable {
		diags = append(diags, Diagnostic{
			Code: "const-foldable", Severity: Info, Node: n.Name,
			Detail: fmt.Sprintf("%s node: every input is a compile-time constant; fold pass missed it", n.OpType),
		})
	}

	// isvdos-const: a value-determined-shape op whose non-constant input
	// is nonetheless proven constant by value propagation.
	if !foldable && kernels.ClassOf(n.OpType) == kernels.ISVDOS {
		for _, in := range n.Inputs {
			if in == "" || g.IsGraphInput(in) {
				continue
			}
			if _, isConst := g.Initializers[in]; isConst {
				continue
			}
			if vals, ok := infos[in].Value.Ints(); ok {
				diags = append(diags, Diagnostic{
					Code: "isvdos-const", Severity: Info, Node: n.Name, Value: in,
					Detail: fmt.Sprintf("%s input %q is provably %v; the value-determined shape could be specialized statically", n.OpType, in, vals),
				})
			}
		}
	}
	return diags
}

// constTruth decides a scalar predicate's truth value when it is
// provable: either RDP tracked the concrete value, or its symbolic
// expression has a range over the region that excludes (or pins) zero.
func constTruth(v lattice.ValueInfo, region Region) (verdict, known bool) {
	if vals, ok := v.Ints(); ok && len(vals) == 1 {
		return vals[0] != 0, true
	}
	if v.Kind == lattice.ValueElems && len(v.Elems) == 1 && v.Elems[0].IsExpr() {
		iv, err := symbolic.IntervalOf(v.Elems[0].E, map[string]symbolic.Interval(region))
		if err != nil {
			return false, false
		}
		if !iv.Contains(0) {
			return true, true
		}
		if iv.IsPoint() && iv.Lo == 0 {
			return false, true
		}
	}
	return false, false
}
