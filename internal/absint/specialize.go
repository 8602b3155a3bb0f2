package absint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/fold"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// DefaultMaxConstElems bounds the size of tensors the specializer will
// materialize as initializers when proven region-constant.
const DefaultMaxConstElems = 64

// Options configures Specialize.
type Options struct {
	// Region maps input symbols to their proven intervals. A nil region
	// means nothing is known about the inputs beyond the graph itself.
	Region map[string]symbolic.Interval
	// MaxConstElems overrides DefaultMaxConstElems when > 0.
	MaxConstElems int
}

// BranchDecision records one control-flow construct resolved to a single
// arm by the abstract interpretation.
type BranchDecision struct {
	Node string `json:"node"`
	Op   string `json:"op"` // "If" or "Switch"
	// Taken is the resolved arm: for If, 0 = then_branch and 1 =
	// else_branch; for Switch, the output index the data is routed to.
	Taken int `json:"taken"`
	// RegionDep marks the proof as leaning on region facts: the rewrite
	// is only valid for in-region inputs.
	RegionDep bool `json:"region_dep,omitempty"`
	// Applied is false when the rewrite was provable but structurally
	// infeasible (e.g. pruning would orphan a graph output); the
	// decision is still recorded.
	Applied bool `json:"applied"`
}

// ConstValue records one tensor proven region-constant and materialized
// as an initializer feeding its shape-determining consumers.
type ConstValue struct {
	Value     string  `json:"value"`
	Dims      []int64 `json:"dims,omitempty"`
	Ints      []int64 `json:"ints"`
	RegionDep bool    `json:"region_dep,omitempty"`
}

// LoopBound records a proven static trip-count bound attached to a Loop
// node as the static_max_trip attribute.
type LoopBound struct {
	Node      string `json:"node"`
	MaxTrip   int64  `json:"max_trip"`
	RegionDep bool   `json:"region_dep,omitempty"`
}

// Certificate is the record of a specialization: the region it is valid
// for, every decision the specializer took, and the structural
// consequences.
type Certificate struct {
	Region     map[string]symbolic.Interval `json:"region,omitempty"`
	Branches   []BranchDecision             `json:"branches,omitempty"`
	Constified []ConstValue                 `json:"constified,omitempty"`
	LoopBounds []LoopBound                  `json:"loop_bounds,omitempty"`
	// Removed lists nodes of the original graph absent from the
	// specialized one (pruned arms, dead producers), sorted.
	Removed []string `json:"removed,omitempty"`
	// Rewritten lists nodes whose op changed in place (Switch and
	// Combine collapsed to Identity), sorted.
	Rewritten []string `json:"rewritten,omitempty"`
	// Folded counts nodes constant-folded after the rewrites and
	// FoldedConsts names the initializers they became.
	Folded       int      `json:"folded,omitempty"`
	FoldedConsts []string `json:"folded_consts,omitempty"`
	Sweeps       int      `json:"sweeps,omitempty"`
}

// Empty reports whether the certificate records no facts at all.
func (c *Certificate) Empty() bool {
	return c == nil || (len(c.Branches) == 0 && len(c.Constified) == 0 &&
		len(c.LoopBounds) == 0 && c.Folded == 0 && len(c.Removed) == 0)
}

// ChangedGraph reports whether the specialized graph differs from the
// original (including attribute-only loop bounds).
func (c *Certificate) ChangedGraph() bool {
	return c != nil && (c.TopologyChanged() || len(c.LoopBounds) > 0)
}

// TopologyChanged reports whether nodes were removed, rewritten, or
// constified — i.e. the RDP fixed point must be recomputed.
func (c *Certificate) TopologyChanged() bool {
	if c == nil {
		return false
	}
	for _, b := range c.Branches {
		if b.Applied {
			return true
		}
	}
	return len(c.Constified) > 0 || c.Folded > 0 || len(c.Removed) > 0 || len(c.Rewritten) > 0
}

// RegionDependent reports whether any applied graph change leaned on
// region facts. When true, the specialized graph is only equivalent to
// the original for in-region inputs.
func (c *Certificate) RegionDependent() bool {
	if c == nil {
		return false
	}
	for _, b := range c.Branches {
		if b.Applied && b.RegionDep {
			return true
		}
	}
	for _, cv := range c.Constified {
		if cv.RegionDep {
			return true
		}
	}
	for _, lb := range c.LoopBounds {
		if lb.RegionDep {
			return true
		}
	}
	return false
}

// Digest returns a short stable fingerprint of the certificate.
func (c *Certificate) Digest() string {
	if c.Empty() {
		return "none"
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "err"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Summary renders a one-line human description of the certificate.
func (c *Certificate) Summary() string {
	if c.Empty() {
		return "no specialization facts"
	}
	applied := 0
	for _, b := range c.Branches {
		if b.Applied {
			applied++
		}
	}
	return fmt.Sprintf("%d branches pruned, %d values constified, %d loops bounded, %d nodes removed, %d folded",
		applied, len(c.Constified), len(c.LoopBounds), len(c.Removed), c.Folded)
}

// Specialize runs the abstract interpretation over g for the region and
// applies every rewrite its facts license. It returns the specialized
// graph (g itself when nothing changed) and the certificate.
func Specialize(g *graph.Graph, infos map[string]lattice.Info, opts Options) (*graph.Graph, *Certificate, error) {
	res := Interpret(g, infos, opts.Region)
	d := collect(g, infos, res, opts)
	cert := &Certificate{Region: opts.Region, Sweeps: res.Sweeps}
	if len(d.branches) == 0 && len(d.constified) == 0 && len(d.loopBounds) == 0 {
		return g, cert, nil
	}
	sg := g.Clone()
	if err := apply(sg, d); err != nil {
		return nil, nil, err
	}
	cert.Branches = d.branches
	cert.Constified = d.constified
	cert.LoopBounds = d.loopBounds
	cert.Removed = d.removed
	cert.Rewritten = d.rewritten
	cert.Folded = d.foldedNodes
	cert.FoldedConsts = d.foldedConsts
	if !cert.ChangedGraph() {
		return g, cert, nil
	}
	return sg, cert, nil
}

type decisions struct {
	branches   []BranchDecision
	constified []ConstValue
	loopBounds []LoopBound

	removed      []string
	rewritten    []string
	foldedNodes  int
	foldedConsts []string
}

// collect turns the fixpoint into a decision list, in graph node order
// so the certificate is deterministic.
func collect(g *graph.Graph, infos map[string]lattice.Info, res *Result, opts Options) *decisions {
	d := &decisions{}
	maxElems := opts.MaxConstElems
	if maxElems <= 0 {
		maxElems = DefaultMaxConstElems
	}
	seenConst := map[string]bool{}
	for _, n := range g.Nodes {
		switch n.OpType {
		case "If":
			if len(n.Inputs) == 0 {
				break
			}
			if verdict, known, dep := res.Truth(n.Inputs[0]); known {
				taken := 1
				if verdict {
					taken = 0
				}
				d.branches = append(d.branches, BranchDecision{Node: n.Name, Op: "If", Taken: taken, RegionDep: dep})
			}
		case "Switch":
			if len(n.Inputs) < 2 || len(n.Outputs) == 0 {
				break
			}
			if taken, dep, ok := switchTaken(g, n, res); ok {
				d.branches = append(d.branches, BranchDecision{Node: n.Name, Op: "Switch", Taken: taken, RegionDep: dep})
			}
		case "Loop":
			if v, ok := res.TripBounds[n.Name]; ok && len(v.Elems) == 1 {
				hi := v.Elems[0].Hi
				if hi >= 0 && v.Elems[0].Lo >= 0 {
					d.loopBounds = append(d.loopBounds, LoopBound{Node: n.Name, MaxTrip: hi, RegionDep: v.RegionDep})
				}
			}
		}
		for _, idx := range ISVDOSInputs(n) {
			name := n.Inputs[idx]
			if seenConst[name] || g.IsGraphInput(name) {
				continue
			}
			if _, isInit := g.Initializers[name]; isInit {
				continue
			}
			v, ok := res.Values[name]
			if !ok {
				continue
			}
			pts, ok := v.Points()
			if !ok || len(pts) > maxElems {
				continue
			}
			dims, ok := infos[name].Shape.Ints()
			if !ok || tensor.NumElems(dims) != int64(len(pts)) {
				continue
			}
			seenConst[name] = true
			d.constified = append(d.constified, ConstValue{Value: name, Dims: dims, Ints: pts, RegionDep: v.RegionDep})
		}
	}
	return d
}

// switchTaken resolves the routed output index of a Switch whose
// predicate is region-constant. Switch routing depends on the
// predicate's dtype (bool: true routes to output 0, false to the last;
// int64: the value is a clamped output index), so pruning requires the
// dtype to be statically resolvable.
func switchTaken(g *graph.Graph, n *graph.Node, res *Result) (taken int, regionDep, ok bool) {
	pred := n.Inputs[0]
	nOut := len(n.Outputs)
	dt, known := predDType(g, pred)
	if !known {
		return 0, false, false
	}
	switch dt {
	case tensor.Bool:
		verdict, kn, dep := res.Truth(pred)
		if !kn {
			return 0, false, false
		}
		if verdict {
			return 0, dep, true
		}
		return nOut - 1, dep, true
	case tensor.Int64:
		v, okv := res.Values[pred]
		if !okv || len(v.Elems) != 1 || !v.Elems[0].IsPoint() {
			return 0, false, false
		}
		idx := v.Elems[0].Lo
		if idx < 0 {
			idx = 0
		}
		if idx >= int64(nOut) {
			idx = int64(nOut) - 1
		}
		return int(idx), v.RegionDep, true
	}
	return 0, false, false
}

// predDType statically resolves a value's element type where possible.
func predDType(g *graph.Graph, name string) (tensor.DType, bool) {
	for _, in := range g.Inputs {
		if in.Name == name {
			return in.DType, true
		}
	}
	if t, ok := g.Initializers[name]; ok {
		return t.DType, true
	}
	p := g.Producer(name)
	if p == nil {
		return 0, false
	}
	switch p.OpType {
	case "Greater", "Less", "Equal", "Not", "And", "Or", "Xor":
		return tensor.Bool, true
	case "Shape", "Size", "Range", "ArgMax", "ArgMin", "NonZero":
		return tensor.Int64, true
	case "Cast":
		switch p.AttrString("to", "float32") {
		case "int64":
			return tensor.Int64, true
		case "bool":
			return tensor.Bool, true
		case "float32":
			return tensor.Float32, true
		}
	case "Identity", "Reshape", "Squeeze", "Unsqueeze":
		if len(p.Inputs) > 0 {
			return predDType(g, p.Inputs[0])
		}
	}
	return 0, false
}

// apply executes the decision list against g (a private clone), filling
// in the structural consequences.
func apply(g *graph.Graph, d *decisions) error {
	if err := constify(g, d); err != nil {
		return err
	}
	for i := range d.branches {
		bd := &d.branches[i]
		n := nodeByName(g, bd.Node)
		if n == nil {
			return fmt.Errorf("absint: branch node %q not found", bd.Node)
		}
		switch bd.Op {
		case "If":
			if bd.Applied = ifFeasible(g, n, bd.Taken); !bd.Applied {
				continue
			}
			if err := inlineIf(g, n, bd.Taken, d); err != nil {
				return err
			}
		case "Switch":
			dead, feasible := switchPruneClosure(g, n, bd.Taken)
			if bd.Applied = feasible; !bd.Applied {
				continue
			}
			pruneSwitch(g, n, bd.Taken, dead, d)
		default:
			return fmt.Errorf("absint: unknown branch op %q", bd.Op)
		}
	}
	for _, lb := range d.loopBounds {
		n := nodeByName(g, lb.Node)
		if n == nil {
			return fmt.Errorf("absint: loop node %q not found", lb.Node)
		}
		if n.Attrs == nil {
			n.Attrs = map[string]graph.AttrValue{}
		}
		n.Attrs["static_max_trip"] = graph.IntAttr(lb.MaxTrip)
	}
	sweepDead(g, d)
	g.ResetIndexes()
	fres, err := fold.Fold(g)
	if err != nil {
		return fmt.Errorf("absint: fold after specialize: %w", err)
	}
	d.foldedNodes = fres.FoldedNodes
	d.foldedConsts = append([]string(nil), fres.NewConstants...)
	sort.Strings(d.foldedConsts)
	sort.Strings(d.removed)
	sort.Strings(d.rewritten)
	g.ResetIndexes()
	if err := g.Validate(); err != nil {
		return fmt.Errorf("absint: specialized graph invalid: %w", err)
	}
	return nil
}

// constify materializes proven-constant values as initializers and
// rewires every consumer onto them.
func constify(g *graph.Graph, d *decisions) error {
	for _, cv := range d.constified {
		newName := cv.Value + "$c"
		if _, exists := g.Initializers[newName]; exists || g.IsGraphInput(newName) || g.Producer(newName) != nil {
			return fmt.Errorf("absint: constified name %q collides", newName)
		}
		if tensor.NumElems(cv.Dims) != int64(len(cv.Ints)) {
			return fmt.Errorf("absint: constified %q: %d elements for dims %v", cv.Value, len(cv.Ints), cv.Dims)
		}
		g.AddInitializer(newName, tensor.FromInts(cv.Dims, cv.Ints))
		for _, n := range g.Nodes {
			for j, in := range n.Inputs {
				if in == cv.Value {
					n.Inputs[j] = newName
				}
			}
		}
	}
	g.ResetIndexes()
	return nil
}

// ifFeasible reports whether the taken arm of an If can be inlined.
func ifFeasible(g *graph.Graph, n *graph.Node, taken int) bool {
	body := ifBody(n, taken)
	if body == nil {
		return false
	}
	if len(body.Inputs) > len(n.Inputs)-1 || len(n.Outputs) > len(body.Outputs) {
		return false
	}
	for name, t := range body.Initializers {
		if pt, ok := g.Initializers[name]; ok && pt != t {
			return false
		}
		if g.IsGraphInput(name) || g.Producer(name) != nil {
			return false
		}
	}
	for _, bi := range body.Inputs {
		// The Identity bind node redefines the body input name in the
		// parent scope; it must be fresh there.
		if g.IsGraphInput(bi.Name) || g.Producer(bi.Name) != nil {
			return false
		}
		if _, ok := g.Initializers[bi.Name]; ok {
			return false
		}
	}
	return true
}

func ifBody(n *graph.Node, taken int) *graph.Graph {
	if taken == 0 {
		return n.AttrGraph("then_branch")
	}
	return n.AttrGraph("else_branch")
}

// inlineIf splices the taken arm's body into the parent graph: Identity
// bind nodes for the explicit input bindings, the body nodes verbatim
// (body value names are globally unique by construction), and Identity
// nodes mapping body outputs onto the If node's outputs.
func inlineIf(g *graph.Graph, n *graph.Node, taken int, d *decisions) error {
	body := ifBody(n, taken)
	var spliced []*graph.Node
	for i, bi := range body.Inputs {
		spliced = append(spliced, &graph.Node{
			Name:    n.Name + "$bind" + strconv.Itoa(i),
			OpType:  "Identity",
			Inputs:  []string{n.Inputs[i+1]},
			Outputs: []string{bi.Name},
		})
	}
	spliced = append(spliced, body.Nodes...)
	for name, t := range body.Initializers {
		g.Initializers[name] = t
	}
	for i, o := range n.Outputs {
		if o == "" {
			continue
		}
		spliced = append(spliced, &graph.Node{
			Name:    n.Name + "$out" + strconv.Itoa(i),
			OpType:  "Identity",
			Inputs:  []string{body.Outputs[i]},
			Outputs: []string{o},
		})
	}
	pos := nodeIndex(g, n)
	if pos < 0 {
		return fmt.Errorf("absint: If node %q vanished mid-apply", n.Name)
	}
	rest := append([]*graph.Node(nil), g.Nodes[pos+1:]...)
	g.Nodes = append(append(g.Nodes[:pos], spliced...), rest...)
	d.removed = append(d.removed, n.Name)
	g.ResetIndexes()
	return nil
}

// switchPruneClosure computes the set of values that become unproducible
// if the Switch routes only its taken output, and whether pruning is
// feasible (no graph output becomes unproducible).
func switchPruneClosure(g *graph.Graph, n *graph.Node, taken int) (map[string]bool, bool) {
	dead := map[string]bool{}
	for i, o := range n.Outputs {
		if i != taken && o != "" {
			dead[o] = true
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, false
	}
	for _, m := range order {
		if m == n {
			continue
		}
		hasDead := false
		for _, in := range m.Inputs {
			if dead[in] {
				hasDead = true
				break
			}
		}
		if !hasDead {
			continue
		}
		if m.OpType == "Combine" {
			alive := ""
			for _, in := range m.Inputs {
				if in != "" && !dead[in] {
					alive = in
					break
				}
			}
			if alive != "" {
				continue // rewritten to Identity(alive); outputs stay live
			}
		}
		for _, o := range m.Outputs {
			if o != "" {
				dead[o] = true
			}
		}
	}
	for _, o := range g.Outputs {
		if dead[o] {
			return nil, false
		}
	}
	return dead, true
}

// pruneSwitch rewrites the Switch to an Identity routing its data input
// to the taken output, collapses Combine merges onto their surviving
// input, and removes every node made unproducible.
func pruneSwitch(g *graph.Graph, n *graph.Node, taken int, dead map[string]bool, d *decisions) {
	n.OpType = "Identity"
	n.Inputs = []string{n.Inputs[1]}
	n.Outputs = []string{n.Outputs[taken]}
	d.rewritten = append(d.rewritten, n.Name)
	var kept []*graph.Node
	for _, m := range g.Nodes {
		if m == n {
			kept = append(kept, m)
			continue
		}
		hasDead := false
		for _, in := range m.Inputs {
			if dead[in] {
				hasDead = true
				break
			}
		}
		if !hasDead {
			kept = append(kept, m)
			continue
		}
		if m.OpType == "Combine" {
			alive := ""
			for _, in := range m.Inputs {
				if in != "" && !dead[in] {
					alive = in
					break
				}
			}
			if alive != "" {
				m.OpType = "Identity"
				m.Inputs = []string{alive}
				d.rewritten = append(d.rewritten, m.Name)
				kept = append(kept, m)
				continue
			}
		}
		d.removed = append(d.removed, m.Name)
	}
	g.Nodes = kept
	g.ResetIndexes()
}

// sweepDead removes nodes none of whose outputs are consumed or
// exported, repeating to a fixed point.
func sweepDead(g *graph.Graph, d *decisions) {
	for {
		consumed := map[string]bool{}
		for _, o := range g.Outputs {
			consumed[o] = true
		}
		for _, n := range g.Nodes {
			for _, in := range n.Inputs {
				if in != "" {
					consumed[in] = true
				}
			}
		}
		var kept []*graph.Node
		changed := false
		for _, n := range g.Nodes {
			live := false
			for _, o := range n.Outputs {
				if o != "" && consumed[o] {
					live = true
					break
				}
			}
			if live {
				kept = append(kept, n)
			} else {
				d.removed = append(d.removed, n.Name)
				changed = true
			}
		}
		if !changed {
			return
		}
		g.Nodes = kept
		g.ResetIndexes()
	}
}

func nodeByName(g *graph.Graph, name string) *graph.Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

func nodeIndex(g *graph.Graph, n *graph.Node) int {
	for i, m := range g.Nodes {
		if m == n {
			return i
		}
	}
	return -1
}
