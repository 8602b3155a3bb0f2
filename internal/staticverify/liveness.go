package staticverify

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// LifeInterval is a value's static live range in execution-step indices
// (inclusive): produced at Birth, last used at Death.
type LifeInterval struct {
	Birth, Death int
}

// Liveness derives the def-use live interval of every value produced by
// the order: Birth at the producing step, Death at the last consuming
// step (graph outputs stay live through the final step; values never
// consumed die at birth). A use of a forwarded value — a Switch arm or a
// Combine output, which the executor hands on without copying — is also
// a use of each of its may-alias roots (aliasRoots). These are exactly
// the intervals the memory planner must allocate with, and on graphs
// without control flow the intervals the instrumented-execution property
// test compares against observed first/last touches.
//
// Def-use violations — a node consuming a value no step has produced, a
// value produced twice — come back as "schedule" diagnostics; the
// returned intervals then describe the first production only.
func Liveness(g *graph.Graph, order []*graph.Node) (map[string]LifeInterval, []Diagnostic) {
	live := make(map[string]LifeInterval)
	var diags []Diagnostic
	external := make(map[string]bool, len(g.Inputs)+len(g.Initializers))
	for _, in := range g.Inputs {
		external[in.Name] = true
	}
	for name := range g.Initializers {
		external[name] = true
	}
	roots := aliasRoots(g, order)
	// use extends v's interval to step; v must have been produced.
	use := func(v string, step int) bool {
		iv, born := live[v]
		if born {
			iv.Death = max(iv.Death, step)
			live[v] = iv
		}
		return born
	}
	for step, n := range order {
		for _, in := range n.Inputs {
			if in == "" || external[in] {
				continue
			}
			if !use(in, step) {
				diags = append(diags, Diagnostic{
					Code: "schedule", Severity: Error, Node: n.Name, Value: in,
					Detail: fmt.Sprintf("step %d consumes %q before any step produces it", step, in),
				})
				continue
			}
			for _, r := range roots[in] {
				use(r, step)
			}
		}
		for _, o := range n.Outputs {
			if o == "" {
				continue
			}
			if prev, dup := live[o]; dup {
				diags = append(diags, Diagnostic{
					Code: "schedule", Severity: Error, Node: n.Name, Value: o,
					Detail: fmt.Sprintf("step %d re-produces %q (first produced at step %d)", step, o, prev.Birth),
				})
				continue
			}
			live[o] = LifeInterval{Birth: step, Death: step}
		}
	}
	last := len(order) - 1
	for _, o := range g.Outputs {
		use(o, last)
		for _, r := range roots[o] {
			use(r, last)
		}
	}
	return live, diags
}

// aliasRoots maps every value a Switch or Combine produces to its
// may-alias roots: the values made by other nodes whose storage it may
// share. The executor hands a Switch's data input to its arms and a
// Combine's chosen input to its output, so an arm's roots are the data's
// and a Combine output's the union of its inputs' — a union because
// which input Combine hands on is decided at run time. A value produced
// by any other node is its own root; graph inputs and initializers are
// nobody's, since they are not intermediates (and the executor clones
// an output that shares their storage).
func aliasRoots(g *graph.Graph, order []*graph.Node) map[string][]string {
	roots := map[string][]string{}
	rootsOf := func(v string) []string {
		if rs, ok := roots[v]; ok {
			return rs
		}
		if v == "" || g.IsGraphInput(v) {
			return nil
		}
		if _, isConst := g.Initializers[v]; isConst {
			return nil
		}
		return []string{v}
	}
	for _, n := range order {
		var from []string
		switch n.OpType {
		case "Switch":
			if len(n.Inputs) >= 2 {
				from = n.Inputs[1:2] // [predicate, data]
			}
		case "Combine":
			from = n.Inputs
		default:
			continue
		}
		var rs []string
		for _, in := range from {
			for _, r := range rootsOf(in) {
				if !slices.Contains(rs, r) {
					rs = append(rs, r)
				}
			}
		}
		for _, o := range n.Outputs {
			if o != "" {
				roots[o] = rs
			}
		}
	}
	return roots
}
