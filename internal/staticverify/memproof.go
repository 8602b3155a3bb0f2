package staticverify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dtypes"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/memplan"
	"repro/internal/symbolic"
)

// MemVerdict is the outcome of the symbolic memory-plan proof. When
// Proven, Plan is a single arena layout valid for every shape in the
// region — serving fits it to each request without re-planning or
// re-verification. When not, Reason names why the property is
// unprovable (never a silent skip) and the serving path allocates
// dynamically.
type MemVerdict struct {
	Proven bool
	Reason string
	// Plan/Program are the region-wide worst-case plan (Proven only), and
	// Layout is Plan's placement order over Program: serving fits it to
	// each request's sizes, which the proof bounds by Program's.
	Plan    *memplan.Plan
	Program *memplan.Program
	Layout  *memplan.Layout
	// Buffers and ArenaSize summarize the proven plan.
	Buffers   int
	ArenaSize int64
}

// inputSymbols collects the free symbols of the analyzed graph-input
// shapes — the symbols a concrete request binds via BindInputs.
func inputSymbols(g *graph.Graph, infos map[string]lattice.Info) map[string]bool {
	syms := make(map[string]bool)
	for _, in := range g.Inputs {
		shape := in.Shape
		if info, ok := infos[in.Name]; ok && info.Shape.Kind == lattice.ShapeRanked {
			shape = info.Shape
		}
		if shape.Kind != lattice.ShapeRanked {
			continue
		}
		for _, d := range shape.Dims {
			if d.IsExpr() {
				for _, s := range symbolic.FreeSyms(d.E) {
					syms[s] = true
				}
			}
		}
	}
	return syms
}

// symsWithin reports whether every free symbol of e is in the set.
func symsWithin(e symbolic.Expr, set map[string]bool) bool {
	for _, s := range symbolic.FreeSyms(e) {
		if !set[s] {
			return false
		}
	}
	return true
}

// ProveMemory attempts the region-wide memory-plan proof. It places
// exactly the buffers serving fits per request — float32 outputs of
// non-control-flow nodes whose shapes a request's binding resolves;
// anything else allocates dynamically — but sizes every placed buffer
// at its interval upper bound over the region, so a valid worst-case
// plan is overlap-free for every member shape. A use of a Switch arm or
// a Combine output is a use of every buffer it may alias (aliasRoots),
// because the executor forwards those values without copying them.
// Dimensions
// that the per-shape contract would range-check are proven non-negative
// over the whole region; any dimension that cannot be bounded (or that
// may go negative for some member) makes the verdict unprovable with the
// reason recorded.
func ProveMemory(g *graph.Graph, infos map[string]lattice.Info, order []*graph.Node,
	region Region, live map[string]LifeInterval) (MemVerdict, []Diagnostic) {

	var diags []Diagnostic
	var reasons []string
	unprovable := func(reason string) {
		reasons = append(reasons, reason)
	}

	ivEnv := map[string]symbolic.Interval(region)

	inSyms := inputSymbols(g, infos)

	// Non-negativity proof over every RDP-resolved dimension the
	// per-shape contract would check (CheckShapes): dims whose symbols
	// are all request-bound must be provably >= 0 across the region.
	names := make([]string, 0, len(infos))
	for name := range infos {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := infos[name].Shape
		if s.Kind != lattice.ShapeRanked {
			continue
		}
		for i, d := range s.Dims {
			if !d.IsExpr() || !symsWithin(d.E, inSyms) {
				continue // unbound at serve time too: dynamic path handles it
			}
			iv, err := symbolic.IntervalOf(d.E, ivEnv)
			if err != nil {
				unprovable(fmt.Sprintf("value %q dim %d (%s): %v", name, i, d.E, err))
				if strings.Contains(err.Error(), "no interval for symbol") {
					diags = append(diags, Diagnostic{
						Code: "unbounded-symbol", Severity: Warn, Value: name,
						Detail: fmt.Sprintf("dim %d (%s) has no range over the input region: %v", i, d.E, err),
					})
				}
				continue
			}
			if iv.Hi < 0 {
				unprovable(fmt.Sprintf("value %q dim %d (%s) is negative for every shape in the region (%s)", name, i, d.E, iv))
				diags = append(diags, Diagnostic{
					Code: "contradiction", Severity: Error, Value: name,
					Detail: fmt.Sprintf("dim %d (%s) evaluates inside %s — negative for every shape in the region", i, d.E, iv),
				})
			} else if iv.Lo < 0 {
				unprovable(fmt.Sprintf("value %q dim %d (%s) may be negative within the region (%s)", name, i, d.E, iv))
				diags = append(diags, Diagnostic{
					Code: "negative-dim", Severity: Error, Value: name,
					Detail: fmt.Sprintf("dim %d (%s) spans %s — negative for part of the input region", i, d.E, iv),
				})
			}
		}
	}

	prog, progReasons := placementProgram(g, infos, order, inSyms, ivEnv, aliasRoots(g, order))
	reasons = append(reasons, progReasons...)
	plan := memplan.PeakFirst(prog)
	planDiags, planReasons := checkPlan(prog, plan, live)
	diags = append(diags, planDiags...)
	reasons = append(reasons, planReasons...)

	v := MemVerdict{Buffers: len(prog.Bufs), ArenaSize: plan.ArenaSize}
	if len(reasons) == 0 {
		v.Proven = true
		v.Plan = plan
		v.Program = prog
		v.Layout = memplan.NewLayout(plan, prog)
	} else {
		v.Reason = strings.Join(dedupe(reasons), "; ")
		diags = append(diags, Diagnostic{
			Code: "unprovable", Severity: Warn,
			Detail: "memory plan not proven over the region: " + v.Reason,
		})
	}
	return v, diags
}

// placementProgram is the worst-case placement program: one step per
// scheduled node, each placed buffer sized at its region upper bound.
// Only values inferred float32 are placed — the arena never holds
// int64/bool/quantized tensors, so a dtype mis-inference leaves a value
// on the dynamic path and can never alias a planned buffer. A step that
// consumes a forwarded value (a Switch arm, a Combine output) also
// consumes its roots, and a graph output keeps its roots live to the
// end: the executor hands such a value on without copying it, so every
// buffer it may share storage with must outlive its last use. The
// reasons name the buffers whose size cannot be bounded.
func placementProgram(g *graph.Graph, infos map[string]lattice.Info, order []*graph.Node,
	inSyms map[string]bool, ivEnv map[string]symbolic.Interval, roots map[string][]string) (*memplan.Program, []string) {

	var reasons []string
	dts := dtypes.Infer(g)
	keep := make(map[string]bool, len(g.Outputs))
	for _, o := range g.Outputs {
		keep[o] = true
		for _, r := range roots[o] {
			keep[r] = true
		}
	}
	steps := make([]memplan.StepSpec, 0, len(order))
	for _, n := range order {
		var st memplan.StepSpec
		if !controlFlowOp(n.OpType) {
			for _, o := range n.Outputs {
				if o == "" || !dts.IsFloat(o) {
					continue
				}
				size, reason := worstCaseBytes(infos[o].Shape, inSyms, ivEnv)
				if reason != "" {
					reasons = append(reasons, fmt.Sprintf("value %q: %s", o, reason))
					continue
				}
				if size > 0 {
					st.Produces = append(st.Produces, memplan.NamedSize{Name: o, Size: size})
				}
			}
		}
		for _, in := range n.Inputs {
			if in != "" && !g.IsGraphInput(in) {
				if _, isConst := g.Initializers[in]; !isConst {
					st.Consumes = append(st.Consumes, in)
					st.Consumes = append(st.Consumes, roots[in]...)
				}
			}
		}
		steps = append(steps, st)
	}
	return memplan.FromSteps(steps, keep), reasons
}

// checkPlan proves a plan of prog against the def-use liveness: every
// placed buffer must be live over all uses of its value, forwarded uses
// included (the lifetime proof), and no two buffers live at the same
// time may share a byte (the disjointness proof). Worst-case sizes
// admit no overlap and actual sizes are bounded by worst-case, so a plan
// that passes is overlap-free for every shape in the region. Each
// failure comes back as an error diagnostic and a reason.
func checkPlan(prog *memplan.Program, plan *memplan.Plan, live map[string]LifeInterval) ([]Diagnostic, []string) {
	var diags []Diagnostic
	var reasons []string
	for _, b := range prog.Bufs {
		lv, ok := live[b.Name]
		if !ok {
			diags = append(diags, Diagnostic{
				Code: "lifetime", Severity: Error, Value: b.Name,
				Detail: "buffer placed for a value the schedule never produces",
			})
			reasons = append(reasons, fmt.Sprintf("buffer %q has no liveness interval", b.Name))
			continue
		}
		if b.Birth != lv.Birth || b.Death < lv.Death {
			diags = append(diags, Diagnostic{
				Code: "lifetime", Severity: Error, Value: b.Name,
				Detail: fmt.Sprintf("buffer live [%d,%d] does not cover uses [%d,%d]", b.Birth, b.Death, lv.Birth, lv.Death),
			})
			reasons = append(reasons, fmt.Sprintf("buffer %q lifetime [%d,%d] does not cover uses [%d,%d]", b.Name, b.Birth, b.Death, lv.Birth, lv.Death))
		}
	}
	if err := plan.Validate(prog); err != nil {
		diags = append(diags, Diagnostic{
			Code: "overlap", Severity: Error, Detail: err.Error(),
		})
		reasons = append(reasons, err.Error())
	}
	return diags, reasons
}

// worstCaseBytes returns the region upper bound of a value's byte size,
// or 0 when the value takes the dynamic-allocation path for every shape
// (unranked, non-expr dims, or symbols a request never binds — exactly
// the shapes a request's binding cannot size). A non-empty reason means
// the size is needed but cannot be bounded over the region.
func worstCaseBytes(s lattice.Shape, inSyms map[string]bool, ivEnv map[string]symbolic.Interval) (int64, string) {
	if s.Kind != lattice.ShapeRanked {
		return 0, ""
	}
	n := int64(1)
	for i, d := range s.Dims {
		if !d.IsExpr() {
			return 0, ""
		}
		if !symsWithin(d.E, inSyms) {
			return 0, "" // serve-time eval fails too: dynamic allocation
		}
		iv, err := symbolic.IntervalOf(d.E, ivEnv)
		if err != nil {
			return 0, fmt.Sprintf("dim %d (%s) unbounded over region: %v", i, d.E, err)
		}
		if iv.Lo < 0 {
			return 0, fmt.Sprintf("dim %d (%s) may be negative over region (%s)", i, d.E, iv)
		}
		n *= iv.Hi
	}
	return n * 4, ""
}

func controlFlowOp(op string) bool {
	switch op {
	case "Switch", "Combine", "If", "Loop":
		return true
	}
	return false
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
