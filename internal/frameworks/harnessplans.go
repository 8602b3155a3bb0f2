package frameworks

import (
	"repro/internal/exec"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/mvc"
	"repro/internal/plan"
	"repro/internal/rdp"
)

// harnessPlans are the plans only the evaluation harness reads: the
// ORT-style static fusion policy the baselines are priced with (and
// Fig. 7 measures), SoD²'s multi-version plan (§4.4.2), whose tuned
// efficiencies the modeled SoD² engine applies, and the breadth-first
// order of the "no execution planning" baseline. No serving path reads
// them, so no compile and no warm boot builds them: a Compiled builds
// them once, on first use (harnessPlans).
type harnessPlans struct {
	fusionStatic *fusion.Plan
	mvc          *mvc.Plan
	naiveOrder   []*graph.Node
	// hotspots maps each MVC hotspot's node to its entry, so mvcEff
	// does not scan every hotspot per trace event.
	hotspots map[*graph.Node]*mvc.NodeVersions
}

// harnessPlans returns the harness plans, building them on the first
// call. They derive from what the compile left behind — the graph, its
// RDP infos, the If/Loop bodies (walked exactly as compileSubgraphs
// walks them) and the proven region — and from nothing a quantized
// compile changes: the packed graph shares the float graph's nodes.
func (c *Compiled) harnessPlans() *harnessPlans {
	c.harnessOnce.Do(func() {
		g, b := c.Graph, c.Builder
		h := &harnessPlans{
			fusionStatic: fusion.Fuse(g, c.Infos, fusion.Static),
			// Version planning over the proven region: hotspots whose
			// shape regimes the region rules out get fewer versions.
			mvc:        mvc.BuildPlanRegion(g, c.Infos, b.MinSize, b.MaxSize, c.presetRegion),
			naiveOrder: plan.BFSOrder(g),
		}
		forEachBody(g, c.Infos, func(body *graph.Graph, res *rdp.Result) {
			mergeFusion(h.fusionStatic, fusion.Fuse(body, res.Infos, fusion.Static))
			sub := mvc.BuildPlanRegion(body, res.Infos, b.MinSize, b.MaxSize, c.presetRegion)
			h.mvc.Hotspots = append(h.mvc.Hotspots, sub.Hotspots...)
			h.mvc.TotalVersions += sub.TotalVersions
		})
		h.hotspots = make(map[*graph.Node]*mvc.NodeVersions, len(h.mvc.Hotspots))
		for i := range h.mvc.Hotspots {
			hs := &h.mvc.Hotspots[i]
			h.hotspots[hs.Node] = hs
		}
		c.harness = h
	})
	return c.harness
}

// FusionStatic returns the static fusion plan, bodies included: the
// groups a framework without RDP can fuse (the ORT baseline's policy).
func (c *Compiled) FusionStatic() *fusion.Plan { return c.harnessPlans().fusionStatic }

// MVCPlan returns the multi-version plan of the model's GEMM and CONV
// hotspots, bodies included, narrowed by the proven region.
func (c *Compiled) MVCPlan() *mvc.Plan { return c.harnessPlans().mvc }

// mvcEff returns the tuned-kernel efficiency for an executed op: its
// hotspot's selected version's, or 1 for an op that is no hotspot.
func (c *Compiled) mvcEff(ev exec.OpEvent) float64 {
	h := c.harnessPlans().hotspots[ev.Node]
	if h == nil {
		return 1.0
	}
	m, n := hotspotMN(ev)
	return h.SelectVersion(m, n).Efficiency
}

// hotspotMN is the concrete GEMM-view (m, n) of an executed hotspot op,
// the pair mvc classifies: MatMul/Gemm's rows of A and columns of B,
// Conv's output channels and output pixels.
func hotspotMN(ev exec.OpEvent) (m, n int64) {
	m, n = 64, 64
	switch ev.OpType {
	case "MatMul", "Gemm":
		if len(ev.InShapes) >= 2 {
			a := ev.InShapes[0]
			b := ev.InShapes[1]
			if len(a) >= 2 {
				m = a[len(a)-2]
			}
			if len(b) >= 1 {
				n = b[len(b)-1]
			}
		}
	case "Conv":
		if len(ev.OutShapes) >= 1 && len(ev.OutShapes[0]) == 4 {
			o := ev.OutShapes[0]
			m = o[1]
			n = o[2] * o[3]
		}
	}
	return m, n
}
