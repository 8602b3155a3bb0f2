package staticverify

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/memplan"
)

// WaveVerdict is the outcome of the wavefront-parallel memory proof:
// whether the planned wave partition is a sequence of antichains and
// whether a wave-widened region-wide arena plan exists whose offsets are
// disjoint for every pair of buffers live in the same wave — the
// property that makes concurrent same-wave placement sound for every
// shape in the region and every interleaving of wave workers.
type WaveVerdict struct {
	Proven bool
	Reason string
	// Layout is the wave-widened region-wide arena plan's placement order
	// over the widened program (Proven only): serving fits it to each
	// wavefront-parallel request admitted by the region fast path.
	// (Fitted with the sequential program's lifetimes instead, two
	// buffers of one wave could overlap.)
	Layout *memplan.Layout
	// Waves and MaxWidth summarize the partition; ArenaSize is the
	// widened plan's footprint (>= the sequential proof's ArenaSize).
	Waves     int
	MaxWidth  int
	ArenaSize int64
}

// ProveWavefronts certifies a wavefront partition against the already
// proven sequential artifacts. waves are half-open [start,end) step
// ranges over `order` (contiguous runs of the planned order). The proof
// has three parts:
//
//  1. Antichain: no node of a wave consumes a value produced inside the
//     same wave. Direct edges suffice: the execution-plan proof
//     establishes that order is topological, and any dependency path
//     between two nodes of a contiguous run stays inside the run, so a
//     transitive dependency implies a direct intra-wave edge somewhere
//     in the run.
//  2. Widening soundness: the wave-widened program's intervals contain
//     the per-step intervals (memplan.Covers) — lifetimes only grow.
//  3. Disjointness: a fresh plan placed against the widened worst-case
//     program validates overlap-free. Two buffers live in the same wave
//     have overlapping widened intervals by construction, so the
//     validated plan separates them for every shape in the region.
func ProveWavefronts(order []*graph.Node, waves [][2]int, mem MemVerdict) (WaveVerdict, []Diagnostic) {
	v := WaveVerdict{Waves: len(waves)}
	var diags []Diagnostic
	fail := func(code, reason string) {
		v.Reason = reason
		diags = append(diags, Diagnostic{Code: code, Severity: Warn,
			Detail: "wavefront plan not proven: " + reason})
	}
	if len(waves) == 0 {
		v.Reason = "no wavefront partition"
		return v, nil
	}

	// 1. Partition + antichain proof over direct edges.
	next := 0
	for wi, r := range waves {
		if r[0] != next || r[1] <= r[0] || r[1] > len(order) {
			fail("wave-partition", fmt.Sprintf("wave %d range [%d,%d) does not continue the partition at step %d", wi, r[0], r[1], next))
			return v, diags
		}
		next = r[1]
		if r[1]-r[0] > v.MaxWidth {
			v.MaxWidth = r[1] - r[0]
		}
		produced := make(map[string]string, 2*(r[1]-r[0]))
		for s := r[0]; s < r[1]; s++ {
			n := order[s]
			for _, in := range n.Inputs {
				if p, ok := produced[in]; in != "" && ok {
					fail("wave-antichain", fmt.Sprintf("wave %d is not an antichain: %s consumes %q produced by %s in the same wave", wi, n.Name, in, p))
					return v, diags
				}
			}
			for _, o := range n.Outputs {
				if o != "" {
					produced[o] = n.Name
				}
			}
		}
	}
	if next != len(order) {
		fail("wave-partition", fmt.Sprintf("waves cover %d of %d steps", next, len(order)))
		return v, diags
	}

	// 2+3. Widened memory plan, built from the proven sequential
	// worst-case program so the region quantifier carries over.
	if !mem.Proven || mem.Program == nil {
		fail("wave-memory", "sequential memory plan not proven: "+mem.Reason)
		return v, diags
	}
	widened, err := memplan.WidenWaves(mem.Program, waves)
	if err != nil {
		fail("wave-memory", err.Error())
		return v, diags
	}
	if err := memplan.Covers(widened, mem.Program); err != nil {
		fail("wave-memory", "widening shrank a lifetime: "+err.Error())
		return v, diags
	}
	plan := memplan.PeakFirst(widened)
	if err := plan.Validate(widened); err != nil {
		diags = append(diags, Diagnostic{Code: "overlap", Severity: Error,
			Detail: "widened plan: " + err.Error()})
		v.Reason = "widened plan overlaps: " + err.Error()
		return v, diags
	}
	v.Proven = true
	v.Layout = memplan.NewLayout(plan, widened)
	v.ArenaSize = plan.ArenaSize
	return v, diags
}
