// Pareto execution planning: the width-aware extension of SEP. The
// memory-minimal order (plan.Build) is one extreme of a trade-off — it
// serializes independent branches, so the wavefront partition built
// over it rarely goes wider than 2–3 ops. The other extreme, the BFS
// order, maximizes available parallelism but lets every branch's
// intermediates live at once. ParetoFrontier enumerates the points in
// between: for each live-byte cap k×(memory-minimal peak) it runs a
// list scheduler that prefers breadth (lowest depth first) among the
// ready nodes that fit under the cap, falling back to the
// memory-greedy choice when nothing fits. Each distinct resulting
// order is a frontier candidate (peak live bytes × available width);
// the cost model (costmodel.SelectSchedule) scores the candidates'
// wavefront makespans and picks the point for a device profile.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
)

// DefaultCapFactors are the live-byte cap multiples (of the
// memory-minimal peak) the frontier search tries, in increasing
// memory-premium order. Factors above the device's configured k are
// clipped by ParetoOptions.MaxFactor.
var DefaultCapFactors = []float64{1.5, 2, 3, 4, 6, 8}

// SchedPoint identifies the frontier point a compile chose — the
// scheduling coordinates that must be persisted with an artifact so a
// warm boot replays the same decision without re-running the search.
type SchedPoint struct {
	// CapFactor is the live-byte cap as a multiple of the memory-minimal
	// peak (1.0 = the memory-minimal anchor itself).
	CapFactor float64
	// Workers is the worker count the makespan was modeled at.
	Workers int
	// AnchorPeakBytes is the memory-minimal peak (the Pareto anchor the
	// cap is relative to).
	AnchorPeakBytes int64
	// PeakBytes is the chosen order's sequential peak (≤ CapFactor ×
	// AnchorPeakBytes).
	PeakBytes int64
	// MakespanUS is the modeled wavefront makespan of the chosen order
	// at Workers workers (µs, static node costs).
	MakespanUS float64
}

// Candidate is one point of the (peak live bytes × makespan) frontier:
// a topological order together with the cap it was scheduled under and
// the sequential peak it achieves.
type Candidate struct {
	Order []*graph.Node
	// PeakBytes is the sequential peak of Order (PeakBytes(g, Order, sizes)).
	PeakBytes int64
	// CapFactor is the cap multiple the order was scheduled under (1.0
	// for the memory-minimal anchor).
	CapFactor float64
	// Cap is the resolved live-byte cap (CapFactor × anchor peak).
	Cap int64
}

// ParetoOptions tune the frontier search.
type ParetoOptions struct {
	// Env binds symbolic dims (defaults to the planner's nominal binding).
	Env symbolic.Env
	// Fusion marks fused-internal values (never materialized, size 0).
	Fusion *fusion.Plan
	// CapFactors are the cap multiples to try (default DefaultCapFactors).
	CapFactors []float64
	// MaxFactor clips the factors to the device's configured k
	// (0 = no clip).
	MaxFactor float64
}

// ParetoFrontier enumerates candidate orders between the memory-minimal
// anchor and the widest order the largest cap admits. The anchor is
// always candidate 0 (CapFactor 1.0), so a caller that scores the
// frontier can never do worse than the single-objective SEP result.
// Every candidate order is topological and its sequential peak respects
// its cap; orders that duplicate an earlier candidate are dropped.
func ParetoFrontier(g *graph.Graph, infos map[string]lattice.Info, anchor *Plan, opts ParetoOptions) ([]Candidate, error) {
	if anchor == nil || len(anchor.Order) == 0 {
		return nil, fmt.Errorf("plan: pareto frontier: no anchor plan")
	}
	if opts.Env == nil {
		opts.Env = nominalEnv(infos)
	}
	sizes := valueSizes(g, infos, opts.Env, opts.Fusion)
	anchorPeak := PeakBytes(g, anchor.Order, sizes)

	factors := opts.CapFactors
	if len(factors) == 0 {
		factors = DefaultCapFactors
	}

	cands := []Candidate{{
		Order: anchor.Order, PeakBytes: anchorPeak, CapFactor: 1, Cap: anchorPeak,
	}}
	seen := map[string]bool{orderKey(anchor.Order): true}
	for _, f := range factors {
		if f <= 1 || (opts.MaxFactor > 0 && f > opts.MaxFactor) {
			continue
		}
		cap := int64(f * float64(anchorPeak))
		order := widthAwareOrder(g, anchor.Order, sizes, cap)
		if len(order) != len(anchor.Order) {
			continue // cyclic remainder: not a schedule (anchor covers us)
		}
		peak := PeakBytes(g, order, sizes)
		if cap > 0 && peak > cap {
			// The min-live fallback had to exceed the cap to make
			// progress; the candidate violates its own contract. Larger
			// factors still get their chance.
			continue
		}
		key := orderKey(order)
		if seen[key] {
			continue
		}
		seen[key] = true
		cands = append(cands, Candidate{Order: order, PeakBytes: peak, CapFactor: f, Cap: cap})
	}
	return cands, nil
}

// orderKey fingerprints an order for dedup (names are unique).
func orderKey(order []*graph.Node) string {
	var sb strings.Builder
	for _, n := range order {
		sb.WriteString(n.Name)
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// widthAwareOrder is the capped list scheduler behind each frontier
// candidate: among the ready nodes whose scheduling keeps live bytes
// within cap, pick the shallowest (lowest depth — the levelized choice
// that reproduces BFS waves when the cap is generous), tie-breaking by
// name; when no ready node fits, fall back to the memory-greedy choice
// (min live bytes, then name) so progress never stalls. Both
// comparators are total orders over uniquely-named nodes, so the
// result is deterministic across processes.
func widthAwareOrder(g *graph.Graph, sorted []*graph.Node, sizes map[string]int64, cap int64) []*graph.Node {
	s := newScheduler(g, sorted, sizes)
	depth := nodeDepths(g, sorted)
	scheduled := make(map[*graph.Node]bool, len(sorted))
	order := make([]*graph.Node, 0, len(sorted))
	for len(order) < len(sorted) {
		cands := s.ready(scheduled)
		if len(cands) == 0 {
			break
		}
		var best, fallback *graph.Node
		var fallbackLive int64
		for _, c := range cands {
			scheduled[c] = true
			live := s.liveBytes(scheduled, c)
			delete(scheduled, c)
			if live <= cap {
				if best == nil || depth[c] < depth[best] ||
					(depth[c] == depth[best] && c.Name < best.Name) {
					best = c
				}
			}
			if fallback == nil || live < fallbackLive ||
				(live == fallbackLive && c.Name < fallback.Name) {
				fallback, fallbackLive = c, live
			}
		}
		if best == nil {
			best = fallback
		}
		scheduled[best] = true
		order = append(order, best)
	}
	return order
}

// nodeDepths computes each node's longest-path depth from the sources.
// sorted must be topological. Among unscheduled nodes the minimum depth
// is always attained by a ready node (its predecessors are strictly
// shallower), so scheduling by ascending depth levelizes the order
// exactly like BFSOrder when memory permits.
func nodeDepths(g *graph.Graph, sorted []*graph.Node) map[*graph.Node]int {
	depth := make(map[*graph.Node]int, len(sorted))
	for _, n := range sorted {
		d := 0
		for _, p := range g.Predecessors(n) {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[n] = d
	}
	return depth
}
