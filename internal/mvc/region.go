package mvc

import (
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
)

// BuildPlanRegion is BuildPlan with interval knowledge of the input
// symbols: instead of assuming every symbolic extent ranges over the
// generic [lo, hi], each hotspot dimension is bounded by evaluating its
// symbolic expression over the verified region, and a relational rule
// covers the m ≡ n case (self-attention score matrices, where the same
// sequence-length expression appears on both sides and the fat/skinny
// regimes are therefore unreachable). The result for every hotspot is a
// subset of BuildPlan's version set: the proven region narrows MVC.
func BuildPlanRegion(g *graph.Graph, infos map[string]lattice.Info, lo, hi int64, region map[string]symbolic.Interval) *Plan {
	if lo <= 0 {
		lo = 16
	}
	if hi <= 0 {
		hi = 1024
	}
	p := &Plan{}
	for _, n := range g.Nodes {
		m, nn, ok := hotspotDims(n, infos)
		if !ok {
			continue
		}
		regimes := possibleRegimesRegion(m, nn, lo, hi, region)
		nv := NodeVersions{Node: n, PossibleRegimes: regimes}
		for _, r := range regimes {
			nv.Versions = append(nv.Versions, TuneRegime(r))
		}
		p.Hotspots = append(p.Hotspots, nv)
		p.TotalVersions += len(nv.Versions)
	}
	return p
}

// hotspotDims extracts the GEMM-view (m, n) lattice dims of a hotspot
// node (shared by BuildPlan and BuildPlanRegion).
func hotspotDims(n *graph.Node, infos map[string]lattice.Info) (m, nn lattice.Dim, ok bool) {
	switch n.OpType {
	case "MatMul", "Gemm":
		a := infos[n.Inputs[0]].Shape
		b := infos[n.Inputs[1]].Shape
		if a.Kind != lattice.ShapeRanked || b.Kind != lattice.ShapeRanked ||
			len(a.Dims) < 2 || len(b.Dims) < 1 {
			return m, nn, false
		}
		return a.Dims[len(a.Dims)-2], b.Dims[len(b.Dims)-1], true
	case "Conv":
		// GEMM view of conv: m = Cout, n = outH*outW.
		o := infos[n.Outputs[0]].Shape
		if o.Kind != lattice.ShapeRanked || len(o.Dims) != 4 {
			return m, nn, false
		}
		m = o.Dims[1]
		if o.Dims[2].IsExpr() && o.Dims[3].IsExpr() {
			nn = lattice.FromExpr(symbolic.Mul(o.Dims[2].E, o.Dims[3].E))
		} else {
			nn = lattice.Undef()
		}
		return m, nn, true
	}
	return m, nn, false
}

// possibleRegimesRegion narrows possibleRegimes with region intervals.
// The result is always a subset of the region-free set, so narrowing
// diffs are monotone.
func possibleRegimesRegion(m, n lattice.Dim, lo, hi int64, region map[string]symbolic.Interval) []Regime {
	base := possibleRegimes(m, n, lo, hi)
	if len(region) == 0 || len(base) <= 1 {
		return base
	}
	// Relational rule: the same expression on both sides means m == n at
	// runtime for every in-region input — the pair walks the diagonal,
	// where m >= 4n and n >= 4m are unsatisfiable.
	if m.IsExpr() && n.IsExpr() && symbolic.Equal(m.E, n.E) {
		if iv, err := symbolic.IntervalOf(m.E, region); err == nil && iv.Lo >= 1 {
			var diag []Regime
			if iv.Lo*iv.Lo <= 64 {
				diag = append(diag, RegimeTiny)
			}
			if iv.Hi*iv.Hi > 64 {
				diag = append(diag, RegimeRegular)
			}
			return intersectRegimes(base, diag)
		}
	}
	mLo, mHi := dimBoundsRegion(m, lo, hi, region)
	nLo, nHi := dimBoundsRegion(n, lo, hi, region)
	return intersectRegimes(base, regimesInBox(mLo, mHi, nLo, nHi))
}

// dimBoundsRegion bounds one hotspot dimension, preferring the region
// interval of its expression over the generic [lo, hi] assumption.
func dimBoundsRegion(d lattice.Dim, lo, hi int64, region map[string]symbolic.Interval) (int64, int64) {
	if v, ok := d.Const(); ok {
		return v, v
	}
	if d.IsExpr() {
		if iv, err := symbolic.IntervalOf(d.E, region); err == nil && iv.Lo >= 1 {
			return iv.Lo, iv.Hi
		}
		if a, b, err := symbolic.Bound(d.E, lo, hi); err == nil {
			return a, b
		}
	}
	return lo, hi
}

// intersectRegimes keeps base's order; if the refinement would empty the
// set, the refined set wins (it is non-empty whenever computed).
func intersectRegimes(base, refined []Regime) []Regime {
	in := map[Regime]bool{}
	for _, r := range refined {
		in[r] = true
	}
	var out []Regime
	for _, r := range base {
		if in[r] {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		if len(refined) > 0 {
			return refined
		}
		return []Regime{RegimeRegular}
	}
	return out
}
