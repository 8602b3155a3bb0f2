// Package fusion implements SoD²'s operator fusion for dynamic DNNs
// (paper §4.2): a DNNFusion-style greedy grouping extended with RDP
// shape information. Static fusion (SFusion) only fuses operators whose
// tensor shapes are fully known constants; RDP fusion additionally fuses
// across symbolically-equal shapes and RDP-resolvable broadcasts (the
// Fig. 4 scenario), and computes how many code versions each fused group
// needs when equality cannot be fully resolved.
package fusion

import (
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/ops"
	"repro/internal/symbolic"
)

// Mode selects the fusion policy.
type Mode uint8

// Fusion policies.
const (
	// NoFusion leaves every operator in its own group.
	NoFusion Mode = iota
	// Static fuses only across fully-known constant shapes (what a
	// static-DNN fuser can prove without RDP).
	Static
	// RDP fuses across symbolically-equal shapes too.
	RDP
)

func (m Mode) String() string {
	switch m {
	case Static:
		return "static"
	case RDP:
		return "rdp"
	default:
		return "none"
	}
}

// Group is one fused operator group; Nodes are in topological order.
type Group struct {
	ID    int
	Nodes []*graph.Node
	// Versions is the number of code versions needed to cover the
	// unresolved shape combinations inside the group (1 = a single
	// fused kernel suffices).
	Versions int
}

// Plan is the result of fusion over one graph.
type Plan struct {
	Mode      Mode
	Groups    []*Group
	NodeGroup map[*graph.Node]int
	// Internal lists value names fully contained inside a group — they
	// are never materialized to memory by the fused kernels.
	Internal map[string]bool
}

// isAnchor reports compute-heavy ops that seed fusion groups.
func isAnchor(op string) bool {
	switch op {
	case "Conv", "MatMul", "Gemm":
		return true
	}
	return false
}

// isFollower reports ops that can be absorbed into a producing group.
func isFollower(op string) bool {
	switch op {
	case "Relu", "LeakyRelu", "Sigmoid", "HardSigmoid", "HardSwish", "Tanh",
		"Erf", "Gelu", "Silu", "Mish", "Elu", "Selu", "Softplus",
		"Exp", "Log", "Sqrt", "Reciprocal", "Neg", "Abs", "Floor", "Ceil",
		"Round", "Sign", "Clip", "Cast", "Identity", "Dropout", "PRelu",
		"Add", "Sub", "Mul", "Div", "Pow", "Min", "Max", "Where",
		"BatchNormalization", "Softmax", "LayerNormalization",
		"Reshape", "Flatten", "Squeeze", "Unsqueeze", "Transpose":
		return true
	}
	return false
}

// isReorganize reports pure data-layout ops (fusable as index remapping).
func isReorganize(op string) bool {
	switch op {
	case "Reshape", "Flatten", "Squeeze", "Unsqueeze", "Transpose":
		return true
	}
	return false
}

// maxGroupSize bounds fused groups (code-size/register pressure proxy).
const maxGroupSize = 10

// Fuse computes the fusion plan for g given RDP results.
func Fuse(g *graph.Graph, infos map[string]lattice.Info, mode Mode) *Plan {
	sorted, err := g.TopoSort()
	if err != nil {
		sorted = g.Nodes
	}
	plan := &Plan{Mode: mode, NodeGroup: map[*graph.Node]int{}, Internal: map[string]bool{}}
	consumers := g.Consumers()
	outputs := map[string]bool{}
	for _, o := range g.Outputs {
		outputs[o] = true
	}

	groupOf := map[*graph.Node]*Group{}
	newGroup := func(n *graph.Node) *Group {
		grp := &Group{ID: len(plan.Groups), Nodes: []*graph.Node{n}, Versions: 1}
		plan.Groups = append(plan.Groups, grp)
		groupOf[n] = grp
		return grp
	}

	for _, n := range sorted {
		if mode == NoFusion {
			newGroup(n)
			continue
		}
		target := fusionTarget(g, n, infos, mode, consumers, outputs, groupOf)
		if target == nil {
			newGroup(n)
			continue
		}
		target.Nodes = append(target.Nodes, n)
		groupOf[n] = target
	}

	for _, grp := range plan.Groups {
		for _, n := range grp.Nodes {
			plan.NodeGroup[n] = grp.ID
		}
	}
	// Values internal to a group: produced and exclusively consumed
	// inside it, and not graph outputs.
	for _, grp := range plan.Groups {
		inGroup := map[*graph.Node]bool{}
		for _, n := range grp.Nodes {
			inGroup[n] = true
		}
		for _, n := range grp.Nodes {
			for _, o := range n.Outputs {
				if o == "" || outputs[o] {
					continue
				}
				internal := true
				for _, c := range consumers[o] {
					if !inGroup[c] {
						internal = false
						break
					}
				}
				if internal && len(consumers[o]) > 0 {
					plan.Internal[o] = true
				}
			}
		}
		grp.Versions = groupVersions(grp, g, infos, mode)
	}
	return plan
}

// fusionTarget finds the producing group n can join, if any.
func fusionTarget(g *graph.Graph, n *graph.Node, infos map[string]lattice.Info, mode Mode,
	consumers map[string][]*graph.Node, outputs map[string]bool, groupOf map[*graph.Node]*Group) *Group {
	if !isFollower(n.OpType) {
		return nil
	}
	// Control-flow ops and EDO never fuse.
	if ops.ClassOf(n.OpType) == ops.EDO {
		return nil
	}
	var candidate *Group
	for _, inName := range n.Inputs {
		if inName == "" {
			continue
		}
		p := g.Producer(inName)
		if p == nil {
			continue // graph input or constant
		}
		grp, ok := groupOf[p]
		if !ok {
			continue
		}
		// The producing edge must be single-consumer and not a graph
		// output: otherwise the tensor materializes anyway.
		if len(consumers[inName]) != 1 || outputs[inName] {
			continue
		}
		if len(grp.Nodes) >= maxGroupSize {
			continue
		}
		if ops.ClassOf(p.OpType) == ops.EDO {
			continue
		}
		if !shapesFusable(n, inName, infos, mode) {
			continue
		}
		candidate = grp
		break
	}
	return candidate
}

// shapesFusable decides whether joining node n through edge inName is
// legal under the mode's shape knowledge.
func shapesFusable(n *graph.Node, inName string, infos map[string]lattice.Info, mode Mode) bool {
	edge := infos[inName].Shape
	switch mode {
	case Static:
		if !edge.AllKnown() {
			return false
		}
	case RDP:
		if !(edge.Kind == lattice.ShapeRanked && edge.AllExpr()) {
			return false
		}
	}
	// Reorganize followers only need the producing edge resolved.
	if isReorganize(n.OpType) {
		for _, o := range n.Outputs {
			out := infos[o].Shape
			if mode == Static && !out.AllKnown() {
				return false
			}
			if mode == RDP && !(out.Kind == lattice.ShapeRanked && out.AllExpr()) {
				return false
			}
		}
		return true
	}
	// Elementwise followers: every other input must be shape-compatible
	// with the edge (equal or RDP-resolvable broadcast, Fig. 4).
	for _, other := range n.Inputs {
		if other == "" || other == inName {
			continue
		}
		os := infos[other].Shape
		switch mode {
		case Static:
			if !os.AllKnown() {
				return false
			}
		case RDP:
			if os.Kind != lattice.ShapeRanked || !os.AllExpr() {
				return false
			}
			if !broadcastResolvable(edge, os) {
				return false
			}
		}
	}
	return true
}

// broadcastResolvable reports whether RDP can pick a single fused code
// version for the broadcast of a and b: every aligned dim pair must
// resolve to a definite relation (equal, known 1, or known constant).
func broadcastResolvable(a, b lattice.Shape) bool {
	n := len(a.Dims)
	if len(b.Dims) > n {
		n = len(b.Dims)
	}
	for i := 0; i < n; i++ {
		ad, bd := lattice.FromInt(1), lattice.FromInt(1)
		if i >= n-len(a.Dims) {
			ad = a.Dims[i-(n-len(a.Dims))]
		}
		if i >= n-len(b.Dims) {
			bd = b.Dims[i-(n-len(b.Dims))]
		}
		if !dimRelationKnown(ad, bd) {
			return false
		}
	}
	return true
}

// dimRelationKnown: the pair resolves when the dims are canonically
// equal, either side is the known constant 1, or both are known.
func dimRelationKnown(a, b lattice.Dim) bool {
	if !a.IsExpr() || !b.IsExpr() {
		return false
	}
	if symbolic.Equal(a.E, b.E) {
		return true
	}
	av, aok := a.Const()
	bv, bok := b.Const()
	if aok && bok {
		return true
	}
	if (aok && av == 1) || (bok && bv == 1) {
		return true
	}
	// One side a known constant c≠1: the other must be 1 or c at runtime;
	// either way the broadcast result is c, but the kernel still needs two
	// versions (stride-0 vs stride-1) — not single-version resolvable.
	return false
}

// isBroadcastElementwise reports binary ops whose fused code shape
// depends on operand broadcast relations.
func isBroadcastElementwise(op string) bool {
	switch op {
	case "Add", "Sub", "Mul", "Div", "Pow", "Min", "Max", "Where", "PRelu",
		"Equal", "Greater", "Less", "And", "Or", "Xor":
		return true
	}
	return false
}

// groupVersions counts the code versions a group needs: 2^(number of
// unresolved broadcast dim relations), capped at 8 (the paper's Fig. 4
// example needs 8 for three unresolved dims).
func groupVersions(grp *Group, g *graph.Graph, infos map[string]lattice.Info, mode Mode) int {
	unresolved := 0
	for _, n := range grp.Nodes {
		if !isBroadcastElementwise(n.OpType) || len(n.Inputs) < 2 {
			continue
		}
		for i := 0; i < len(n.Inputs); i++ {
			for j := i + 1; j < len(n.Inputs); j++ {
				if n.Inputs[i] == "" || n.Inputs[j] == "" {
					continue
				}
				a := infos[n.Inputs[i]].Shape
				b := infos[n.Inputs[j]].Shape
				if a.Kind != lattice.ShapeRanked || b.Kind != lattice.ShapeRanked {
					continue
				}
				nd := len(a.Dims)
				if len(b.Dims) > nd {
					nd = len(b.Dims)
				}
				for d := 0; d < nd; d++ {
					ad, bd := lattice.FromInt(1), lattice.FromInt(1)
					if d >= nd-len(a.Dims) {
						ad = a.Dims[d-(nd-len(a.Dims))]
					}
					if d >= nd-len(b.Dims) {
						bd = b.Dims[d-(nd-len(b.Dims))]
					}
					if !dimRelationKnown(ad, bd) {
						unresolved++
					}
				}
			}
		}
	}
	if unresolved > 3 {
		unresolved = 3
	}
	return 1 << unresolved
}

// GroupOf is the ID of n's fusion group, or -1 when no group holds n
// (the cost model's view of a plan).
func (p *Plan) GroupOf(n *graph.Node) int {
	if gid, ok := p.NodeGroup[n]; ok {
		return gid
	}
	return -1
}

// LayerCount is the number of fused layers (groups).
func (p *Plan) LayerCount() int { return len(p.Groups) }

// Metrics summarizes the fusion effect for Fig. 7.
type Metrics struct {
	OriginalLayers int
	FusedLayers    int
	// IRBytesBefore/After are the intermediate-result bytes materialized
	// without fusion vs with fusion (internal values eliminated),
	// evaluated under env for symbolic dims.
	IRBytesBefore int64
	IRBytesAfter  int64
}

// Measure computes Fig. 7's layer-count and IR-size metrics under a
// concrete symbol binding.
func (p *Plan) Measure(g *graph.Graph, infos map[string]lattice.Info, env symbolic.Env) Metrics {
	m := Metrics{OriginalLayers: len(g.Nodes), FusedLayers: len(p.Groups)}
	for _, n := range g.Nodes {
		for _, o := range n.Outputs {
			if o == "" {
				continue
			}
			sz := valueBytes(infos[o], env)
			m.IRBytesBefore += sz
			if !p.Internal[o] {
				m.IRBytesAfter += sz
			}
		}
	}
	return m
}

// valueBytes estimates a tensor's byte size from its lattice shape under
// env (0 when unknown — ⊥ tensors are sized at runtime).
func valueBytes(info lattice.Info, env symbolic.Env) int64 {
	s := info.Shape
	if s.Kind != lattice.ShapeRanked {
		return 0
	}
	n := int64(1)
	for _, d := range s.Dims {
		if !d.IsExpr() {
			return 0
		}
		v, err := d.E.Eval(env)
		if err != nil {
			return 0
		}
		n *= v
	}
	return n * 4
}
