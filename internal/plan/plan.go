// Package plan implements SoD²'s static execution (order) planning
// (paper §4.3). Using RDP results it partitions the computational graph
// into sub-graphs at nac/EDO boundaries, classifies each sub-graph by
// its shape knowledge (the Fig. 8 categories), and chooses an operator
// execution order that minimizes peak intermediate-result memory — by
// exhaustive subset-DP search for small all-analyzable graphs, and by a
// memory-aware greedy heuristic otherwise.
package plan

import (
	"fmt"
	"sort"

	"repro/internal/dtypes"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/lattice"
	"repro/internal/rdp"
	"repro/internal/symbolic"
)

// SubgraphClass buckets sub-graphs by shape knowledge (Fig. 8).
type SubgraphClass uint8

// Sub-graph classes in the order the paper reports them.
const (
	AllKnownConst SubgraphClass = iota
	MixedConst1
	MixedConst2to4
	MixedConst5to8
	WithNAC
)

func (c SubgraphClass) String() string {
	switch c {
	case AllKnownConst:
		return "all-known-const"
	case MixedConst1:
		return "mixed-const(1)"
	case MixedConst2to4:
		return "mixed-const(2-4)"
	case MixedConst5to8:
		return "mixed-const(5-8)"
	default:
		return "with-nac"
	}
}

// Subgraph is one RDP-delimited planning region.
type Subgraph struct {
	ID       int
	Nodes    []*graph.Node
	Class    SubgraphClass
	Versions int
	Method   string // "exhaustive" or "heuristic"
}

// Plan is the chosen execution order plus the partition metadata.
type Plan struct {
	Order     []*graph.Node
	Subgraphs []*Subgraph
	// PeakBytes is the estimated peak intermediate memory of Order under
	// the planning environment.
	PeakBytes int64
}

// Options tune the planner.
type Options struct {
	// Env binds symbolic dims for size estimation (nominal values).
	Env symbolic.Env
	// ExhaustiveCap bounds the subset-DP search (default 14 nodes).
	ExhaustiveCap int
	// Fusion marks values internal to fused groups (zero-sized: they are
	// never materialized).
	Fusion *fusion.Plan
	// DisableMemoryAwareOrder falls back to plain topological order (the
	// "no SEP" ablation).
	DisableMemoryAwareOrder bool
}

// Build computes the execution plan for g.
func Build(g *graph.Graph, infos map[string]lattice.Info, opts Options) (*Plan, error) {
	if opts.ExhaustiveCap == 0 {
		opts.ExhaustiveCap = 14
	}
	if opts.Env == nil {
		opts.Env = nominalEnv(infos)
	}
	sizes := valueSizes(g, infos, opts.Env, opts.Fusion)

	sorted, err := g.TopoSort()
	if err != nil {
		return nil, err
	}

	p := &Plan{}
	p.Subgraphs = partition(g, infos, sorted, opts)

	switch {
	case opts.DisableMemoryAwareOrder:
		p.Order = sorted
	case len(sorted) <= opts.ExhaustiveCap && !hasNAC(g, infos):
		order, err := exhaustiveOrder(g, sorted, sizes)
		if err != nil {
			return nil, err
		}
		p.Order = order
		for _, sg := range p.Subgraphs {
			sg.Method = "exhaustive"
		}
	default:
		p.Order = greedyOrder(g, sorted, sizes)
		for _, sg := range p.Subgraphs {
			if len(sg.Nodes) <= opts.ExhaustiveCap && sg.Class != WithNAC {
				sg.Method = "exhaustive"
			} else {
				sg.Method = "heuristic"
			}
		}
	}
	p.PeakBytes = PeakBytes(g, p.Order, sizes)
	return p, nil
}

// nominalEnv binds every free symbol appearing in the infos to a nominal
// extent so symbolic sizes can be compared (the paper's "derived from the
// same set of symbolic constants" case reduces to expression comparison;
// we evaluate under one consistent binding).
func nominalEnv(infos map[string]lattice.Info) symbolic.Env {
	env := symbolic.Env{}
	for _, info := range infos {
		if info.Shape.Kind != lattice.ShapeRanked {
			continue
		}
		for _, d := range info.Shape.Dims {
			if d.IsExpr() {
				for _, s := range symbolic.FreeSyms(d.E) {
					if _, ok := env[s]; !ok {
						env[s] = 64
					}
				}
			}
		}
	}
	return env
}

// valueSizes estimates the materialized byte size of every value,
// charging each value its inferred element width (int64 shape tensors
// cost 8 bytes/elem, bool masks 1) so planned peaks account the same
// bytes the runtime actually holds.
func valueSizes(g *graph.Graph, infos map[string]lattice.Info, env symbolic.Env, fp *fusion.Plan) map[string]int64 {
	dts := dtypes.Infer(g)
	sizes := map[string]int64{}
	for name, info := range infos {
		if fp != nil && fp.Internal[name] {
			sizes[name] = 0
			continue
		}
		sizes[name] = sizeUnder(info.Shape, env, dts.SizeOf(name))
	}
	return sizes
}

func sizeUnder(s lattice.Shape, env symbolic.Env, elemSize int64) int64 {
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
	return n * elemSize
}

func hasNAC(g *graph.Graph, infos map[string]lattice.Info) bool {
	for _, info := range infos {
		if info.Shape.IsNAC() || info.Shape.HasNACDim() {
			return true
		}
	}
	return false
}

// partition splits the graph into sub-graphs at EDO/nac boundary nodes
// (paper: "operators with nac output provide an opportunity to partition
// the original graph into sub-graphs that can be independently analyzed").
func partition(g *graph.Graph, infos map[string]lattice.Info, sorted []*graph.Node, opts Options) []*Subgraph {
	isBoundary := func(n *graph.Node) bool {
		if kernels.ClassOf(n.OpType) == kernels.EDO {
			return true
		}
		for _, o := range n.Outputs {
			if o != "" {
				s := infos[o].Shape
				if s.IsNAC() || s.HasNACDim() {
					return true
				}
			}
		}
		return false
	}
	// Union non-boundary nodes connected through non-boundary edges.
	parent := map[*graph.Node]*graph.Node{}
	var find func(n *graph.Node) *graph.Node
	find = func(n *graph.Node) *graph.Node {
		if parent[n] == nil || parent[n] == n {
			parent[n] = n
			return n
		}
		r := find(parent[n])
		parent[n] = r
		return r
	}
	union := func(a, b *graph.Node) { parent[find(a)] = find(b) }
	for _, n := range sorted {
		if isBoundary(n) {
			continue
		}
		for _, p := range g.Predecessors(n) {
			if !isBoundary(p) {
				union(n, p)
			}
		}
	}
	groups := map[*graph.Node][]*graph.Node{}
	var boundaries []*graph.Node
	for _, n := range sorted {
		if isBoundary(n) {
			boundaries = append(boundaries, n)
			continue
		}
		r := find(n)
		groups[r] = append(groups[r], n)
	}
	// Deterministic ordering of subgraphs: by first node's position.
	type entry struct {
		first int
		nodes []*graph.Node
	}
	pos := map[*graph.Node]int{}
	for i, n := range sorted {
		pos[n] = i
	}
	var entries []entry
	for _, nodes := range groups {
		first := len(sorted)
		for _, n := range nodes {
			if pos[n] < first {
				first = pos[n]
			}
		}
		entries = append(entries, entry{first, nodes})
	}
	for _, b := range boundaries {
		entries = append(entries, entry{pos[b], []*graph.Node{b}})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].first < entries[j].first })

	var out []*Subgraph
	for i, e := range entries {
		sg := &Subgraph{ID: i, Nodes: e.nodes}
		sg.Class, sg.Versions = classify(g, e.nodes, infos, opts.Fusion)
		out = append(out, sg)
	}
	return out
}

func classify(g *graph.Graph, nodes []*graph.Node, infos map[string]lattice.Info, fp *fusion.Plan) (SubgraphClass, int) {
	allKnown := true
	anyNAC := false
	for _, n := range nodes {
		if kernels.ClassOf(n.OpType) == kernels.EDO {
			anyNAC = true
		}
		for _, o := range n.Outputs {
			if o == "" {
				continue
			}
			s := infos[o].Shape
			switch rdp.ClassifyShape(s) {
			case rdp.ClassKnown:
			case rdp.ClassNAC, rdp.ClassUndef:
				anyNAC = true
				allKnown = false
			default:
				allKnown = false
			}
		}
	}
	if anyNAC {
		return WithNAC, 0
	}
	if allKnown {
		return AllKnownConst, 1
	}
	versions := 1
	if fp != nil {
		for _, n := range nodes {
			if gid, ok := fp.NodeGroup[n]; ok {
				if v := fp.Groups[gid].Versions; v > versions {
					versions = v
				}
			}
		}
	}
	switch {
	case versions <= 1:
		return MixedConst1, versions
	case versions <= 4:
		return MixedConst2to4, versions
	default:
		return MixedConst5to8, versions
	}
}

// liveAfter computes the live intermediate bytes once mask is scheduled.
type scheduler struct {
	g         *graph.Graph
	nodes     []*graph.Node
	idx       map[*graph.Node]int
	sizes     map[string]int64
	consumers map[string][]*graph.Node
	outputs   map[string]bool
}

func newScheduler(g *graph.Graph, sorted []*graph.Node, sizes map[string]int64) *scheduler {
	s := &scheduler{
		g: g, nodes: sorted, idx: map[*graph.Node]int{},
		sizes: sizes, consumers: g.Consumers(), outputs: map[string]bool{},
	}
	for i, n := range sorted {
		s.idx[n] = i
	}
	for _, o := range g.Outputs {
		s.outputs[o] = true
	}
	return s
}

// liveBytes computes the intermediate bytes live while `current` runs:
// outputs of scheduled nodes still needed by unscheduled consumers (or
// model outputs), plus the inputs of the currently-executing node, which
// cannot be freed until it finishes.
func (s *scheduler) liveBytes(scheduled map[*graph.Node]bool, current *graph.Node) int64 {
	held := map[string]bool{}
	if current != nil {
		for _, in := range current.Inputs {
			if in != "" {
				held[in] = true
			}
		}
	}
	var live int64
	for n := range scheduled {
		for _, o := range n.Outputs {
			if o == "" {
				continue
			}
			alive := s.outputs[o] || held[o]
			if !alive {
				for _, c := range s.consumers[o] {
					if !scheduled[c] {
						alive = true
						break
					}
				}
				if len(s.consumers[o]) == 0 && !s.outputs[o] && !held[o] {
					alive = false
				}
			}
			if alive {
				live += s.sizes[o]
			}
		}
	}
	return live
}

// ready returns the schedulable nodes in s.nodes (slice) order — never
// map-iteration order, so the ready set is enumerated deterministically.
// Callers must still break ties with a total order (node name) rather
// than positional preference if they need cross-process stability.
func (s *scheduler) ready(scheduled map[*graph.Node]bool) []*graph.Node {
	var out []*graph.Node
	for _, n := range s.nodes {
		if scheduled[n] {
			continue
		}
		ok := true
		for _, p := range s.g.Predecessors(n) {
			if !scheduled[p] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, n)
		}
	}
	return out
}

// greedyOrder schedules the ready node that minimizes live bytes.
// Ties break on the node name: names are unique (graph validation
// rejects duplicates), so (live, name) is a total order and the chosen
// schedule is identical across processes regardless of how the ready
// set was enumerated — required for artifact round-trip cross-checks.
func greedyOrder(g *graph.Graph, sorted []*graph.Node, sizes map[string]int64) []*graph.Node {
	s := newScheduler(g, sorted, sizes)
	scheduled := map[*graph.Node]bool{}
	var order []*graph.Node
	for len(order) < len(sorted) {
		cands := s.ready(scheduled)
		if len(cands) == 0 {
			break
		}
		var best *graph.Node
		var bestLive int64 = 1 << 62
		for _, c := range cands {
			scheduled[c] = true
			live := s.liveBytes(scheduled, c)
			delete(scheduled, c)
			if best == nil || live < bestLive || (live == bestLive && c.Name < best.Name) {
				best, bestLive = c, live
			}
		}
		scheduled[best] = true
		order = append(order, best)
	}
	return order
}

// exhaustiveOrder finds the peak-memory-minimal topological order via
// DP over scheduled subsets — feasible because sg sizes are capped.
func exhaustiveOrder(g *graph.Graph, sorted []*graph.Node, sizes map[string]int64) ([]*graph.Node, error) {
	n := len(sorted)
	if n > 20 {
		return nil, fmt.Errorf("plan: %d nodes too large for exhaustive search", n)
	}
	s := newScheduler(g, sorted, sizes)
	// Precompute predecessor masks.
	predMask := make([]uint32, n)
	for i, node := range sorted {
		for _, p := range g.Predecessors(node) {
			predMask[i] |= 1 << uint(s.idx[p])
		}
	}
	liveOf := func(mask uint32, current *graph.Node) int64 {
		scheduled := map[*graph.Node]bool{}
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				scheduled[sorted[i]] = true
			}
		}
		return s.liveBytes(scheduled, current)
	}
	type memoEntry struct {
		peak int64
		next int
	}
	memo := map[uint32]memoEntry{}
	full := uint32(1<<uint(n)) - 1
	var solve func(mask uint32) memoEntry
	solve = func(mask uint32) memoEntry {
		if mask == full {
			return memoEntry{peak: 0, next: -1}
		}
		if e, ok := memo[mask]; ok {
			return e
		}
		best := memoEntry{peak: 1 << 62, next: -1}
		for i := 0; i < n; i++ {
			bit := uint32(1) << uint(i)
			if mask&bit != 0 || predMask[i]&mask != predMask[i] {
				continue
			}
			nm := mask | bit
			stepPeak := liveOf(nm, sorted[i])
			sub := solve(nm)
			peak := stepPeak
			if sub.peak > peak {
				peak = sub.peak
			}
			if peak < best.peak {
				best = memoEntry{peak: peak, next: i}
			}
		}
		memo[mask] = best
		return best
	}
	solve(0)
	var order []*graph.Node
	mask := uint32(0)
	for mask != full {
		e := solve(mask)
		if e.next < 0 {
			return nil, fmt.Errorf("plan: exhaustive search stuck at mask %b", mask)
		}
		order = append(order, sorted[e.next])
		mask |= 1 << uint(e.next)
	}
	return order, nil
}

// BFSOrder returns a breadth-first (parallelism-first) topological order
// — the order a scheduler that maximizes available parallelism would
// pick, and the "no execution planning" baseline of the Fig. 5/6
// ablation. It tends to keep many branches live simultaneously, which is
// exactly the peak-memory behaviour SEP eliminates.
func BFSOrder(g *graph.Graph) []*graph.Node {
	sorted, err := g.TopoSort()
	if err != nil {
		return g.Nodes
	}
	scheduled := map[*graph.Node]bool{}
	var order []*graph.Node
	for len(order) < len(sorted) {
		// One BFS wave: everything currently ready.
		var wave []*graph.Node
		for _, n := range sorted {
			if scheduled[n] {
				continue
			}
			ready := true
			for _, p := range g.Predecessors(n) {
				if !scheduled[p] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, n)
			}
		}
		if len(wave) == 0 {
			break
		}
		for _, n := range wave {
			scheduled[n] = true
			order = append(order, n)
		}
	}
	return order
}

// PeakBytes evaluates the peak intermediate memory of an order.
func PeakBytes(g *graph.Graph, order []*graph.Node, sizes map[string]int64) int64 {
	s := newScheduler(g, order, sizes)
	scheduled := map[*graph.Node]bool{}
	var peak int64
	for _, n := range order {
		scheduled[n] = true
		if live := s.liveBytes(scheduled, n); live > peak {
			peak = live
		}
	}
	return peak
}
